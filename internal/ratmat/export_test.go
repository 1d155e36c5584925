package ratmat

import "testing"

// CheckMatchesDense lets the external test package compare matrices it
// can build (the yeast stoichiometry) against the dense reference.
func CheckMatchesDense(t *testing.T, name string, m *Matrix) { checkMatchesDense(t, name, m) }

// CheckWidths lets the external test package hold the machine-word
// elimination to the big.Rat one on the matrices the reducer and the
// nullspace preparation eliminate.
func CheckWidths(t *testing.T, name string, m *Matrix, transpose bool) bool {
	return checkWidths(t, name, m, transpose)
}

// Fallbacks reads how many eliminations have left machine words.
func Fallbacks() int64 { return fallbacks.Load() }

// Observe hands f every matrix eliminated until the returned func
// restores the previous observer.
func Observe(f func(m *Matrix, transpose bool)) (restore func()) {
	prev := observed
	observed = f
	return func() { observed = prev }
}
