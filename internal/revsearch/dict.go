package revsearch

import (
	"fmt"

	"elmocomp/internal/lp"
)

// The dictionary itself — layout, width, lexicographic anchor,
// pivoting, the lex-min-ratio rule, entry signs before and after a
// pivot — is lp.Dict. This file adds only what reverse search layers on
// top of it: the symbolic dual perturbation that makes the optimal
// dictionary unique, and the lazy scan that decides a reverse child
// from the parent's signs without pivoting.

// reducedSign returns the sign of cobasic variable s's reduced cost
// under the symbolic objective c(delta) = (delta, delta^2, ...,
// delta^n): scanning variables k in ascending order, the coefficient of
// delta^(k+1) is +1 at k == s and -T[RowOf(k)][s] for basic k, so the
// first nonzero decides. The scan always terminates at k == s at the
// latest, hence no reduced cost is ever zero (dual nondegeneracy: the
// optimal basis — the reverse-search root — is unique).
func reducedSign(d *lp.Dict, s int) int {
	for k := 0; k < s; k++ {
		if r := d.RowOf(k); r >= 0 {
			if sg := d.Sign(r, s); sg != 0 {
				return -sg
			}
		}
	}
	return 1
}

// childReducedSign returns reducedSign(j) as it would read in the child
// dictionary produced by Pivot(r, l), evaluated lazily from the parent
// signs (lp.Dict.SignAfterPivot) — the reverse-search child test runs
// it for candidates that are mostly rejected, and skipping the trial
// pivot (O(m*n) exact multiplications) for those is the dominant saving
// of the traversal.
// j must be cobasic in the child (cobasic here and != l) and j < the
// variable currently basic in row r, so the ascending scan never
// reaches that variable and every basic k it meets has RowOf(k) != r.
func childReducedSign(d *lp.Dict, j, r, l int) int {
	for k := 0; k < j; k++ {
		if k == l {
			// Basic in the child at row r: T'[r][j] = T[r][j]/p.
			if sg := d.Sign(r, j); sg != 0 {
				return -sg
			}
			continue
		}
		if i := d.RowOf(k); i >= 0 {
			if sg := d.SignAfterPivot(i, j, r, l); sg != 0 {
				return -sg
			}
		}
	}
	return 1
}

// selectPivot is the deterministic forward simplex rule the reverse
// search inverts: entering variable s = the least-index cobasic with a
// positive reduced cost, leaving row r = the unique lexicographic
// minimum ratio among rows with T[r][s] > 0. It returns ok=false at the
// optimal dictionary (the root). An entering column with no positive
// entry cannot occur: P lies inside the standard simplex, so the LP is
// bounded.
func selectPivot(d *lp.Dict) (s, r int, ok bool, err error) {
	s = -1
	for j, n := 0, d.NumVars(); j < n; j++ {
		if d.RowOf(j) < 0 && reducedSign(d, j) > 0 {
			s = j
			break
		}
	}
	if s < 0 {
		return 0, 0, false, nil
	}
	r = d.LexMinRatioRow(s)
	if r < 0 {
		return 0, 0, false, fmt.Errorf("revsearch: entering column %d is unbounded (the polytope should be bounded)", s)
	}
	return s, r, true, nil
}
