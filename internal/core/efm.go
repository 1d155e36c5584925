package core

import (
	"fmt"
	"math/big"

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
