package ratmat

import "testing"

// CheckMatchesDense lets the external test package compare matrices it
// can build (the yeast stoichiometry) against the dense reference.
func CheckMatchesDense(t *testing.T, name string, m *Matrix) { checkMatchesDense(t, name, m) }
