// Package nullspace prepares the starting point of the Nullspace
// Algorithm: an exact kernel basis of the reduced stoichiometric matrix
// brought into (I ; R⁽²⁾) form by a column permutation, with the R⁽²⁾ rows
// ordered by the paper's heuristics (fewest non-zeros first, reversible
// reactions last) and the stoichiometry columns permuted to match.
//
// The identity (free) block must consist of irreversible reactions: a
// free reaction's value is a non-negative combination coefficient in
// every generated mode, so a reversible reaction left in the identity
// block could never receive negative flux and its backward-running modes
// would be silently lost. (Consistent with the paper's worked example,
// whose identity rows r2, r4, r5, r7 are all irreversible.) Reversible
// columns are therefore eliminated first so they become pivots whenever
// linearly possible; a reversible column that is linearly dependent on
// the other reversible columns (e.g. part of an all-reversible cycle) is
// split into an antiparallel pair of irreversible columns, recorded in
// Split so results can be folded back.
package nullspace

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"sort"

	"elmocomp/internal/bitset"
	"elmocomp/internal/ratmat"
)

// Heuristics control the row ordering of the non-identity part of the
// initial nullspace matrix (section II-C cites both as proven to often
// improve efficiency) and the reversible-reaction strategy. The zero
// value enables both ordering heuristics and keeps reversible reactions
// unsplit (the nullspace approach's hallmark).
type Heuristics struct {
	DisableNonzeroOrder   bool // keep natural order instead of fewest-nonzeros-first
	DisableReversibleLast bool // do not push reversible rows to the bottom
	// SplitAllReversible splits every reversible reaction into an
	// irreversible antiparallel pair up front (the Gagneur–Klamt
	// "binary approach" formulation). The flux cone becomes pointed,
	// which the combinatorial (superset) adjacency test requires for
	// soundness; the cost is a wider system. The rank test works in
	// either formulation.
	SplitAllReversible bool
	// ForceLast lists caller column indices that must end up as the
	// LAST pivot rows of the reordered kernel, in the given order —
	// the divide-and-conquer driver uses this to position its partition
	// reactions so the run can stop just before them (Proposition 1).
	// Preparation fails if a listed column cannot be a pivot.
	ForceLast []int
}

// Split records reaction splitting performed during preparation. Problem
// columns index the (possibly widened) working system; original columns
// index the caller's matrix.
type Split struct {
	OrigQ int    // caller's column count
	ColOf []int  // problem column -> original column
	Bwd   []bool // problem column is the negated (backward) copy
	// SplitCols lists the original columns that were split, ascending.
	SplitCols []int
}

// Problem is a fully prepared Nullspace Algorithm instance. Row/column
// index i of the permuted system corresponds to problem column Perm[i];
// rows 0..D-1 carry the identity block.
type Problem struct {
	// NExact is the working stoichiometry with columns permuted to the
	// kernel row order (the paper's Nredperm), kept exact for
	// verification and flux reconstruction.
	NExact *ratmat.Matrix
	// KernelRows is the initial q×D nullspace matrix, rows permuted so
	// the identity block is on top (the paper's Kredperm), in float64,
	// row-major (row i at [i·D, (i+1)·D)), with every row scaled to unit
	// max-magnitude. Row scaling re-expresses each reaction's flux in its
	// own unit — supports, signs and all rank structure are unchanged,
	// but the dynamic range *within* a mode column shrinks dramatically
	// (the yeast biomass reaction has stoichiometric coefficients up to
	// 40141, which would otherwise put seven orders of magnitude inside
	// single columns and erode the float engine's zero detection).
	// Rows 0..D-1 are the unit vectors, so the elementarity test only
	// ever reads the block below them: with J the identity rows in a
	// support S and T̄ the pivot rows outside it, the nullity of N over
	// S equals |J| − rank(KernelRows[T̄, J]).
	KernelRows []float64
	// ColMask holds, per kernel column j < D, the bitmask of its non-zero
	// rows: ⌈q/64⌉ words per column, column j at [j·⌈q/64⌉, (j+1)·⌈q/64⌉).
	// Its bits outside a support S are column j's rows of T̄: what the
	// rank test reads of K₂[T̄, J]'s zero pattern, a word of rows at a
	// time.
	ColMask []uint64
	// Perm maps permuted index -> problem column index.
	Perm []int
	// Rev holds reversibility flags in permuted order.
	Rev []bool
	// D is the kernel dimension (number of identity rows; iterations
	// process rows D..q-1).
	D int
	// Split is non-nil when reversible reactions had to be split; it
	// maps problem columns back to the caller's columns.
	Split *Split
}

// Q returns the number of problem columns (rows of the kernel matrix).
func (p *Problem) Q() int { return len(p.Perm) }

// M returns the number of metabolite constraints.
func (p *Problem) M() int { return p.NExact.Rows() }

// OrigQ returns the caller's column count (before any splitting).
func (p *Problem) OrigQ() int {
	if p.Split != nil {
		return p.Split.OrigQ
	}
	return len(p.Perm)
}

// OrigCol maps a problem column to the caller's column index.
func (p *Problem) OrigCol(c int) int {
	if p.Split != nil {
		return p.Split.ColOf[c]
	}
	return c
}

// Fold maps a support over the permuted problem columns (bit i is
// permuted index i) to the caller's columns. It is the one fold of a
// split problem back to the reactions it was prepared from: a split
// reaction's forward/backward two-cycle folds to the zero flux vector,
// reported as false, and the ± orientations of a fully reversible mode
// fold to equal sets, which callers dedup with bitset.Distinct. On an
// unsplit problem it is the Perm map.
func (p *Problem) Fold(words []uint64) (bitset.Set, bool) {
	b := bitset.New(p.OrigQ())
	n := 0
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			b.Set(p.OrigCol(p.Perm[w*64+bits.TrailingZeros64(word)]))
			n++
		}
	}
	return b, p.Split == nil || n != 2 || b.Count() != 1
}

// InvPerm returns the inverse permutation: problem column index ->
// permuted row index.
func (p *Problem) InvPerm() []int {
	inv := make([]int, len(p.Perm))
	for i, v := range p.Perm {
		inv[v] = i
	}
	return inv
}

// New builds a Problem from a reduced stoichiometry matrix and the
// per-reaction reversibility flags, splitting reversible reactions when
// linear dependence forces them out of the pivot set. N must have full
// row rank (the reducer guarantees this).
func New(N *ratmat.Matrix, rev []bool, h Heuristics) (*Problem, error) {
	q := N.Cols()
	if len(rev) != q {
		return nil, fmt.Errorf("nullspace: %d reversibility flags for %d reactions", len(rev), q)
	}
	if rk := N.Rank(); rk != N.Rows() {
		return nil, fmt.Errorf("nullspace: stoichiometry has rank %d < %d rows (reduce first)", rk, N.Rows())
	}
	if h.SplitAllReversible && len(h.ForceLast) > 0 {
		return nil, fmt.Errorf("nullspace: ForceLast cannot be combined with SplitAllReversible (a split partition reaction would leak flux through its backward copy)")
	}
	work := N
	wrev := append([]bool(nil), rev...)
	colOf := make([]int, q)
	bwd := make([]bool, q)
	for j := range colOf {
		colOf[j] = j
	}
	var splitCols []int

	if h.SplitAllReversible {
		var all []int
		for j := 0; j < q; j++ {
			if wrev[j] {
				all = append(all, j)
			}
		}
		if len(all) > 0 {
			work, wrev, colOf, bwd, splitCols = splitColumns(work, wrev, colOf, bwd, splitCols, all)
		}
	}

	for round := 0; ; round++ {
		if round > q+1 {
			return nil, fmt.Errorf("nullspace: splitting did not converge")
		}
		prob, offenders, err := build(work, wrev, h)
		if err != nil {
			return nil, err
		}
		if len(offenders) == 0 {
			if len(splitCols) > 0 {
				sort.Ints(splitCols)
				prob.Split = &Split{
					OrigQ:     q,
					ColOf:     colOf,
					Bwd:       bwd,
					SplitCols: splitCols,
				}
			}
			return prob, nil
		}
		work, wrev, colOf, bwd, splitCols = splitColumns(work, wrev, colOf, bwd, splitCols, offenders)
	}
}

// splitColumns splits the given working columns into antiparallel
// irreversible pairs: the forward copy stays in place, the backward
// (negated) copy is appended.
func splitColumns(work *ratmat.Matrix, wrev []bool, colOf []int, bwd []bool, splitCols, targets []int) (*ratmat.Matrix, []bool, []int, []bool, []int) {
	m := work.Rows()
	wq := work.Cols()
	next := ratmat.New(m, wq+len(targets))
	for i := 0; i < m; i++ {
		for j := 0; j < wq; j++ {
			next.Set(i, j, work.At(i, j))
		}
	}
	neg := new(big.Rat)
	for k, c := range targets {
		for i := 0; i < m; i++ {
			neg.Neg(work.At(i, c))
			next.Set(i, wq+k, neg)
		}
		wrev[c] = false
		wrev = append(wrev, false)
		colOf = append(colOf, colOf[c])
		bwd = append(bwd, true)
		splitCols = append(splitCols, colOf[c])
	}
	return next, wrev, colOf, bwd, splitCols
}

// build constructs the Problem for a fixed working system, returning the
// working-column indices of reversible reactions stuck in the identity
// block (offenders) instead of failing.
func build(N *ratmat.Matrix, rev []bool, h Heuristics) (*Problem, []int, error) {
	q := N.Cols()
	forced := make(map[int]int, len(h.ForceLast)) // column -> position in ForceLast
	for i, f := range h.ForceLast {
		if f < 0 || f >= q {
			return nil, nil, fmt.Errorf("nullspace: forced column %d out of range", f)
		}
		if _, dup := forced[f]; dup {
			return nil, nil, fmt.Errorf("nullspace: forced column %d listed twice", f)
		}
		forced[f] = i
	}
	// Elimination order: forced columns first (so they become pivots),
	// then the remaining reversible columns, then irreversible ones.
	colOrder := make([]int, 0, q)
	for _, f := range h.ForceLast {
		colOrder = append(colOrder, f)
	}
	for j := 0; j < q; j++ {
		if _, isF := forced[j]; rev[j] && !isF {
			colOrder = append(colOrder, j)
		}
	}
	for j := 0; j < q; j++ {
		if _, isF := forced[j]; !rev[j] && !isF {
			colOrder = append(colOrder, j)
		}
	}
	Nord := N.SelectColumns(colOrder)
	Kord, freeOrd := Nord.Kernel()
	d := Kord.Cols()
	if d == 0 {
		return nil, nil, fmt.Errorf("nullspace: kernel is trivial; network admits no steady-state flux")
	}
	free := make([]int, d)
	var offenders []int
	for i, f := range freeOrd {
		free[i] = colOrder[f]
		if _, isF := forced[colOrder[f]]; isF {
			return nil, nil, fmt.Errorf(
				"nullspace: forced column %d is linearly dependent on other forced columns and cannot be a pivot; choose a different partition set",
				colOrder[f])
		}
		if rev[colOrder[f]] {
			offenders = append(offenders, colOrder[f])
		}
	}
	if len(offenders) > 0 {
		return nil, offenders, nil
	}
	// Kernel row of problem column j: Kord's row backOrder[j].
	backOrder := make([]int, q)
	for pos, j := range colOrder {
		backOrder[j] = pos
	}

	isFree := make([]bool, q)
	for _, f := range free {
		isFree[f] = true
	}
	var pivots []int
	for j := 0; j < q; j++ {
		if !isFree[j] {
			pivots = append(pivots, j)
		}
	}

	// Order the R⁽²⁾ rows: fewest kernel non-zeros first, reversible
	// last (stable, so ties keep natural order).
	nonzeros := func(row int) int {
		c := 0
		for j := 0; j < d; j++ {
			if Kord.At(backOrder[row], j).Sign() != 0 {
				c++
			}
		}
		return c
	}
	sort.SliceStable(pivots, func(a, b int) bool {
		ra, rb := pivots[a], pivots[b]
		_, fa := forced[ra]
		_, fb := forced[rb]
		if fa != fb {
			return !fa // forced columns sort to the very end
		}
		if fa && fb {
			return forced[ra] < forced[rb] // keep the caller's order
		}
		if !h.DisableReversibleLast && rev[ra] != rev[rb] {
			return !rev[ra] // irreversible first
		}
		if !h.DisableNonzeroOrder {
			na, nb := nonzeros(ra), nonzeros(rb)
			if na != nb {
				return na < nb
			}
		}
		return false
	})

	perm := append(append([]int{}, free...), pivots...)
	nperm := N.SelectColumns(perm)

	prev := make([]bool, q)
	for i, p := range perm {
		prev[i] = rev[p]
	}

	// Row-scale the float kernel (see the KernelRows field comment): both
	// the per-reaction flux values the engine iterates on and the
	// complement-row rank test use the scaled copy.
	flat := make([]float64, q*d)
	maskWords := (q + 63) / 64
	mask := make([]uint64, d*maskWords)
	for i := 0; i < q; i++ {
		row := flat[i*d : (i+1)*d]
		maxAbs := 0.0
		for j := range row {
			row[j], _ = Kord.At(backOrder[perm[i]], j).Float64()
			if a := math.Abs(row[j]); a > maxAbs {
				maxAbs = a
			}
		}
		scale := 1.0
		if maxAbs > 0 {
			scale = 1 / maxAbs
		}
		for j := range row {
			row[j] *= scale
			if row[j] != 0 {
				mask[j*maskWords+i/64] |= 1 << uint(i%64)
			}
		}
	}

	return &Problem{
		NExact:     nperm,
		KernelRows: flat,
		ColMask:    mask,
		Perm:       perm,
		Rev:        prev,
		D:          d,
	}, nil, nil
}
