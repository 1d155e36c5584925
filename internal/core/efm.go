package core

import (
	"fmt"
	"math/big"

	"elmocomp/internal/nullspace"
	"elmocomp/internal/ratmat"
)

// ExactFlux is the one exact reconstruction of an elementary mode from
// its support: the kernel vector of N[:, support], which must have
// nullity 1, listed per support position. Every entry must be non-zero —
// a zero means the support bits are not the mode's true support. The
// vector is oriented so that the first irreversible support column (by
// rev) carries positive flux, or the first support column when every one
// is reversible, and rejected if an irreversible column is then negative.
func ExactFlux(N *ratmat.Matrix, rev []bool, support []int) ([]*big.Rat, error) {
	if len(support) == 0 {
		return nil, fmt.Errorf("empty support")
	}
	k, _ := N.SelectColumns(support).Kernel()
	if k.Cols() != 1 {
		return nil, fmt.Errorf("support submatrix has nullity %d, want 1", k.Cols())
	}
	vals := make([]*big.Rat, len(support))
	for j := range support {
		vals[j] = k.At(j, 0)
		if vals[j].Sign() == 0 {
			return nil, fmt.Errorf("kernel vector vanishes at support column %d", support[j])
		}
	}
	lead := 0
	for j, c := range support {
		if !rev[c] {
			lead = j
			break
		}
	}
	if vals[lead].Sign() < 0 {
		for _, v := range vals {
			v.Neg(v)
		}
	}
	for j, c := range support {
		if !rev[c] && vals[j].Sign() < 0 {
			return nil, fmt.Errorf("not sign-orientable (irreversible column %d negative)", c)
		}
	}
	return vals, nil
}

// ReconstructFlux recovers the exact flux vector of mode i of a completed
// run, in *reduced reaction* index space (un-permuted), through ExactFlux
// on the permuted exact stoichiometry.
func ReconstructFlux(p *nullspace.Problem, set *ModeSet, i int) ([]*big.Rat, error) {
	support := set.SupportIndices(i, nil) // permuted indices
	vals, err := ExactFlux(p.NExact, p.Rev, support)
	if err != nil {
		return nil, fmt.Errorf("core: mode %d: %w", i, err)
	}
	out := make([]*big.Rat, p.Q())
	for j := range out {
		out[j] = new(big.Rat)
	}
	for j, permIdx := range support {
		out[p.Perm[permIdx]] = vals[j]
	}
	return out, nil
}

// VerifyModes exhaustively validates a completed run in exact arithmetic:
// every mode reconstructs to a balanced, sign-feasible flux vector whose
// support matches the stored bits, supports are pairwise distinct and
// support-minimal (no support is a proper subset of another). It returns
// the first violation found, or nil. Intended for tests and for spot
// verification of small-to-medium results (cost is roughly one exact
// kernel per mode plus a quadratic support scan).
func VerifyModes(p *nullspace.Problem, set *ModeSet) error {
	inv := p.InvPerm()
	for i := 0; i < set.Len(); i++ {
		flux, err := ReconstructFlux(p, set, i)
		if err != nil {
			return err
		}
		// N·flux == 0 exactly (over the reduced, un-permuted matrix).
		permFlux := make([]*big.Rat, p.Q())
		for rIdx, v := range flux {
			permFlux[inv[rIdx]] = v
		}
		bal := p.NExact.MulVec(permFlux)
		for r, b := range bal {
			if b.Sign() != 0 {
				return fmt.Errorf("core: mode %d violates balance at constraint %d: %v", i, r, b)
			}
		}
		// Support consistency.
		for j := 0; j < p.Q(); j++ {
			has := set.Test(i, j)
			nonzero := permFlux[j].Sign() != 0
			if has != nonzero {
				return fmt.Errorf("core: mode %d support bit %d=%v disagrees with flux %v",
					i, j, has, permFlux[j])
			}
		}
	}
	// Pairwise distinct and incomparable supports (elementarity).
	for i := 0; i < set.Len(); i++ {
		for j := 0; j < set.Len(); j++ {
			if i == j {
				continue
			}
			if subsetWords(set.BitsWords(i), set.BitsWords(j)) {
				if set.SameSupport(i, j) {
					return fmt.Errorf("core: modes %d and %d have identical supports", i, j)
				}
				return fmt.Errorf("core: mode %d's support is contained in mode %d's (not elementary)", i, j)
			}
		}
	}
	return nil
}

func subsetWords(a, b []uint64) bool {
	for w, v := range a {
		if v&^b[w] != 0 {
			return false
		}
	}
	return true
}
