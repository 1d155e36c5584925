package lp

import (
	"errors"
	"fmt"
	"math/big"
)

// errInfeasible is the internal phase-1 signal for an empty feasible
// region; Solve converts it into Status == Infeasible.
var errInfeasible = errors.New("lp: infeasible")

// phase1 finds a primal feasible basis of the (independent-row) program
// with the textbook artificial-variable method: each row gets an
// artificial seeded basic at |b_i|, their sum is minimized under
// Bland's least-index rule (a complete anti-cycling guarantee in exact
// arithmetic), and leftover zero-level artificials are pivoted out
// against structural columns — always possible because the rows are
// independent. Returns the feasible structural basis in ascending
// order and the extended dictionary it was found on (never nil; the
// caller reads its pivot count and width).
//
// The artificial sum depends on row scale, so the extended dictionary
// must be the one of the rational rows [A | I | b], not of the scaled
// ones: it starts at det = ΠLᵢ with body det·[A | I | b], i.e. row i of
// the program times ΠLₖ/Lᵢ and its artificial seeded at Lᵢ in scaled
// terms. Seeding 1 there instead solves a different phase 1 whenever
// some Lᵢ != 1 and lands on another feasible basis — which anchors
// lexCols and with it the shape of every later walk.
func phase1(p *program, scale []big.Int, cancel <-chan struct{}) ([]int, *Dict, error) {
	m, n := p.m, p.n
	// Extended program over n structural + m artificial columns, with
	// rows sign-flipped so every artificial starts non-negative.
	w := n + m + 1
	xp := &program{m: m, n: n + m, rows: make([]big.Int, m*w), bound: p.bound}
	det := big.NewInt(1)
	for i := range scale {
		det.Mul(det, &scale[i])
	}
	var k big.Int
	for i := 0; i < m; i++ {
		k.Quo(det, &scale[i])
		if p.rows[i*(n+1)+n].Sign() < 0 {
			k.Neg(&k)
		}
		for j := 0; j < n; j++ {
			xp.rows[i*w+j].Mul(&k, &p.rows[i*(n+1)+j])
		}
		xp.rows[i*w+n+i].Set(det)
		xp.rows[i*w+n+m].Mul(&k, &p.rows[i*(n+1)+n])
	}
	xp.seal()
	ext := xp.load(det)
	for i := 0; i < m; i++ {
		ext.basisOf[i] = n + i
		ext.rowOf[n+i] = i
	}

	// Minimize the artificial sum. The reduced cost of structural
	// column j is -sum of T[r][j] over artificial-basic rows; entering
	// wants it negative, i.e. that column sum positive.
	var scratch [2]big.Int
	for iter := 0; ; iter++ {
		if iter%64 == 0 && canceled(cancel) {
			return nil, ext, ErrCanceled
		}
		enter := -1
		for j := 0; j < n; j++ {
			if ext.rowOf[j] < 0 && ext.sumSign(j, n) > 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			break
		}
		// Bland leaving: minimum ratio bbar/T over positive entries,
		// ties to the least basic variable index.
		leave := -1
		for r := 0; r < m; r++ {
			if ext.Sign(r, enter) <= 0 {
				continue
			}
			if leave < 0 {
				leave = r
				continue
			}
			switch ext.ratioCmp(r, leave, enter, n+m, &scratch) {
			case -1:
				leave = r
			case 0:
				if ext.basisOf[r] < ext.basisOf[leave] {
					leave = r
				}
			}
		}
		if leave < 0 {
			return nil, ext, fmt.Errorf("lp: phase-1 entering column %d unbounded", enter)
		}
		ext.Pivot(leave, enter)
	}
	// Optimal: infeasible iff any artificial still carries flow.
	for r := 0; r < m; r++ {
		if ext.basisOf[r] >= n && ext.Sign(r, n+m) != 0 {
			return nil, ext, errInfeasible
		}
	}
	// Drive zero-level artificials out on any nonzero structural entry.
	for r := 0; r < m; r++ {
		if ext.basisOf[r] < n {
			continue
		}
		done := false
		for j := 0; j < n; j++ {
			if ext.rowOf[j] < 0 && ext.Sign(r, j) != 0 {
				ext.Pivot(r, j)
				done = true
				break
			}
		}
		if !done {
			return nil, ext, fmt.Errorf("lp: cannot drive artificial out of row %d (dependent constraint row survived)", r)
		}
	}
	basis := make([]int, 0, m)
	for v := 0; v < n; v++ {
		if ext.rowOf[v] >= 0 {
			basis = append(basis, v)
		}
	}
	return basis, ext, nil
}
