// Package lp is the exact-rational linear programming core of the
// interactive tier: a revised-simplex solver over math/big.Rat for
//
//	minimize c^T x  subject to  A x = b, x >= 0,
//
// with no floating point anywhere — every optimal basis, vertex and
// objective value it reports is certifiable by exact arithmetic, which
// is what lets the on-demand EFM generator promise that each streamed
// mode really is the next vertex of the flux polytope.
//
// The solver is the textbook two-phase method hardened against the two
// classic failure modes:
//
//   - Cycling. Phase 1 minimizes the artificial sum under Bland's
//     least-index rule (a complete anti-cycling guarantee in exact
//     arithmetic). Phase 2 enters by Bland's least-index rule and leaves
//     by the lexicographic minimum-ratio rule anchored at the phase-1
//     basis, so no basis ever repeats even on heavily degenerate cones.
//
//   - Inconsistent or redundant rows. Solve pre-eliminates dependent
//     constraint rows exactly (ratmat.IndependentRows) and detects
//     inconsistent systems by the rank of the augmented matrix, so the
//     caller may hand over raw stoichiometry.
//
// Beyond Solve, the package exposes the simplex dictionary (Dict) with
// exact pivot/ratio primitives. It is the only exact dictionary in the
// tree: the on-demand generator walks the basis graph of the
// lex-perturbed polytope through it, internal/revsearch runs its
// reverse search on it (starting from a nil-objective Solve, i.e. the
// phase-1 dictionary), and the FuzzSimplexPivot and FuzzRevsearchPivot
// harnesses round-trip pivot/unpivot exactness on it.
package lp

import (
	"errors"
	"fmt"
	"math/big"

	"elmocomp/internal/cluster"
	"elmocomp/internal/ratmat"
)

// ErrCanceled reports a solve aborted through Options.Cancel. It is the
// cluster substrate's sentinel, like core.ErrCanceled, so a cancel
// matches one error whichever layer saw the channel.
var ErrCanceled = cluster.ErrCanceled

// Status classifies a solved program.
type Status int

const (
	// Optimal: a finite minimizer was found; Solution carries it.
	Optimal Status = iota
	// Infeasible: {x : Ax = b, x >= 0} is empty (either Ax = b has no
	// solution at all, or none with x >= 0).
	Infeasible
	// Unbounded: the objective decreases without bound over the
	// feasible region.
	Unbounded
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "unknown"
}

// Problem is a linear program in standard equality form:
// minimize C·x subject to A x = B, x >= 0. Rows of A may be linearly
// dependent or inconsistent; Solve handles both exactly. A nil C means
// the zero objective (pure feasibility).
type Problem struct {
	A *ratmat.Matrix
	B []*big.Rat
	C []*big.Rat
}

// NormalizedCone returns the constraints of the polytope
// {x : Nx = 0, 1ᵀx = 1, x >= 0}: N stacked over the normalization row
// 1ᵀ, with right-hand side e_last. For a pointed cone {x : Nx = 0,
// x >= 0} its vertices are exactly the normalized extreme rays, which
// is how both internal/revsearch and internal/ondemand pose the EFM
// problem. C is left nil for the caller to set.
func NormalizedCone(N *ratmat.Matrix) *Problem {
	m, n := N.Rows(), N.Cols()
	A := ratmat.New(m+1, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			A.Set(i, j, N.At(i, j))
		}
	}
	for j := 0; j < n; j++ {
		A.SetInt(m, j, 1)
	}
	b := make([]*big.Rat, m+1)
	for i := 0; i < m; i++ {
		b[i] = newRat()
	}
	b[m] = big.NewRat(1, 1)
	return &Problem{A: A, B: b}
}

// Options controls a solve.
type Options struct {
	// Cancel, when non-nil, aborts the solve with ErrCanceled as soon
	// as it is closed (polled every few pivots).
	Cancel <-chan struct{}
}

// Solution is the outcome of a Solve.
type Solution struct {
	Status Status
	// X is the optimal vertex (length n) and Value = C·X, set when
	// Status == Optimal.
	X     []*big.Rat
	Value *big.Rat
	// Basis is the optimal basic variable set in ascending order.
	Basis []int
	// Dict is the optimal dictionary, ready for basis-graph walks
	// (Neighbors via LexMinRatioRow/Pivot, rebuilds via Rebuild). Its
	// lexicographic perturbation is anchored at the phase-1 basis.
	Dict *Dict
	// Pivots counts every exact pivot of the solve (both phases,
	// including the Gauss-Jordan rebuild); Phase1Pivots the phase-1
	// subset.
	Pivots, Phase1Pivots int64
}

func newRat() *big.Rat { return new(big.Rat) }

var ratOne = big.NewRat(1, 1)

// Solve runs the two-phase exact simplex method on p.
func Solve(p *Problem, opts Options) (*Solution, error) {
	if p.A == nil {
		return nil, errors.New("lp: problem has no constraint matrix")
	}
	m, n := p.A.Rows(), p.A.Cols()
	if len(p.B) != m {
		return nil, fmt.Errorf("lp: b has %d entries, want %d", len(p.B), m)
	}
	if p.C != nil && len(p.C) != n {
		return nil, fmt.Errorf("lp: c has %d entries, want %d", len(p.C), n)
	}

	// Exact consistency and redundancy pre-pass: rank([A|b]) > rank(A)
	// means Ax = b has no solution; dependent-but-consistent rows are
	// dropped so phase 1 can always drive its artificials out.
	aug := ratmat.New(m, n+1)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			aug.Set(i, j, p.A.At(i, j))
		}
		aug.Set(i, n, p.B[i])
	}
	keep := p.A.IndependentRows()
	if aug.Rank() > len(keep) {
		return &Solution{Status: Infeasible}, nil
	}
	A := p.A
	b := p.B
	if len(keep) < m {
		A = A.SelectRows(keep)
		nb := make([]*big.Rat, len(keep))
		for i, r := range keep {
			nb[i] = b[r]
		}
		b = nb
	}
	core := &program{m: A.Rows(), n: n, A: A, b: b, c: p.C}

	basis, p1pivots, err := phase1(core, opts.Cancel)
	if err != nil {
		if errors.Is(err, errInfeasible) {
			return &Solution{Status: Infeasible, Pivots: p1pivots, Phase1Pivots: p1pivots}, nil
		}
		return nil, err
	}
	// The phase-1 feasible basis anchors the lexicographic perturbation
	// shared by every dictionary of this program.
	core.lexCols = basis
	d, err := core.fromBasis(basis)
	if err != nil {
		return nil, err
	}
	sol := &Solution{Phase1Pivots: p1pivots}

	// Phase 2: Bland entering (least-index cobasic with a negative
	// reduced cost), lexicographic minimum-ratio leaving. The lex rule
	// keeps every visited basis lex-feasible and strictly lex-decreases
	// the perturbed objective, so the walk terminates without cycling.
	var rc big.Rat
	for iter := 0; ; iter++ {
		if iter%32 == 0 && canceled(opts.Cancel) {
			return nil, ErrCanceled
		}
		s := -1
		for j := 0; j < core.n; j++ {
			if d.rowOf[j] >= 0 {
				continue
			}
			if d.reducedCostInto(&rc, j); rc.Sign() < 0 {
				s = j
				break
			}
		}
		if s < 0 {
			break // optimal
		}
		r := d.LexMinRatioRow(s)
		if r < 0 {
			sol.Status = Unbounded
			sol.Pivots = p1pivots + d.pivots
			return sol, nil
		}
		d.Pivot(r, s)
	}
	sol.Status = Optimal
	sol.Dict = d
	sol.Basis = d.Basis()
	sol.X = d.X()
	sol.Value = d.Value()
	sol.Pivots = p1pivots + d.pivots
	return sol, nil
}

// program is a prepared LP with independent rows: the shared immutable
// state every Dict of one solve points back to.
type program struct {
	m, n int
	A    *ratmat.Matrix
	b    []*big.Rat
	c    []*big.Rat // nil = zero objective
	// lexCols is the basis anchoring the primal lexicographic
	// perturbation b(eps) = b + A_B0 (eps, eps^2, ...): row i's
	// perturbed value reads (bbar_i, T[i][lexCols[0]], ...). Fixed
	// after phase 1.
	lexCols []int
}

func (p *program) cAt(j int) *big.Rat {
	if p.c == nil {
		return nil
	}
	return p.c[j]
}

// Dict is one simplex dictionary T = A_B^{-1}[A | b] of a solved
// program, with the right-hand side in column n. The representation is
// exact and uniquely determined by the basis and row order, so a pivot
// followed by its inverse restores the identical big.Rat entries — the
// invariant FuzzSimplexPivot and FuzzRevsearchPivot pin. Methods that
// do not mutate (including Rebuild) are safe for concurrent use.
type Dict struct {
	prog    *program
	rows    [][]*big.Rat // m x (n+1); column n is bbar
	basisOf []int        // row -> variable
	rowOf   []int        // variable -> row, -1 when cobasic
	pivots  int64
}

// fromBasis rebuilds the dictionary of a basis by Gauss-Jordan
// elimination on the basis columns; rows end up sorted by basic
// variable. Counts m pivots.
func (p *program) fromBasis(basis []int) (*Dict, error) {
	if len(basis) != p.m {
		return nil, fmt.Errorf("lp: basis has %d variables, want %d", len(basis), p.m)
	}
	d := &Dict{
		prog:    p,
		rows:    make([][]*big.Rat, p.m),
		basisOf: append([]int(nil), basis...),
		rowOf:   make([]int, p.n),
	}
	for i := range d.rowOf {
		d.rowOf[i] = -1
	}
	for i := 0; i < p.m; i++ {
		row := make([]*big.Rat, p.n+1)
		for j := 0; j < p.n; j++ {
			row[j] = newRat().Set(p.A.At(i, j))
		}
		row[p.n] = newRat().Set(p.b[i])
		d.rows[i] = row
	}
	for i, v := range basis {
		if v < 0 || v >= p.n {
			return nil, fmt.Errorf("lp: basis variable %d out of range", v)
		}
		pr := -1
		for r := i; r < p.m; r++ {
			if d.rows[r][v].Sign() != 0 {
				pr = r
				break
			}
		}
		if pr < 0 {
			return nil, fmt.Errorf("lp: basis column %d is dependent", v)
		}
		d.rows[i], d.rows[pr] = d.rows[pr], d.rows[i]
		d.scaleEliminate(i, v)
		d.rowOf[v] = i
	}
	d.pivots += int64(p.m)
	return d, nil
}

// Rebuild constructs the dictionary of another basis of the same
// program (sharing its lexicographic anchor) from scratch: the
// on-demand frontier and the reverse-search job queue store bases, not
// dictionaries.
func (d *Dict) Rebuild(basis []int) (*Dict, error) {
	return d.prog.fromBasis(basis)
}

// scaleEliminate normalizes row r's entry in column c to one and clears
// column c everywhere else.
func (d *Dict) scaleEliminate(r, c int) {
	n := d.prog.n
	piv := d.rows[r][c]
	if piv.Cmp(ratOne) != 0 {
		inv := newRat().Inv(piv)
		for j := 0; j <= n; j++ {
			if d.rows[r][j].Sign() != 0 {
				d.rows[r][j].Mul(d.rows[r][j], inv)
			}
		}
	}
	var tmp big.Rat
	for i := 0; i < d.prog.m; i++ {
		if i == r {
			continue
		}
		f := d.rows[i][c]
		if f.Sign() == 0 {
			continue
		}
		fc := newRat().Set(f)
		for j := 0; j <= n; j++ {
			if d.rows[r][j].Sign() == 0 {
				continue
			}
			tmp.Mul(fc, d.rows[r][j])
			d.rows[i][j].Sub(d.rows[i][j], &tmp)
		}
	}
}

// Pivot makes cobasic variable s basic in row r. The inverse of
// Pivot(r, s) is Pivot(r, w) with w the variable previously basic in r.
func (d *Dict) Pivot(r, s int) {
	w := d.basisOf[r]
	d.scaleEliminate(r, s)
	d.basisOf[r] = s
	d.rowOf[w] = -1
	d.rowOf[s] = r
	d.pivots++
}

// NumRows returns the constraint-row count m.
func (d *Dict) NumRows() int { return d.prog.m }

// NumVars returns the variable count n.
func (d *Dict) NumVars() int { return d.prog.n }

// Pivots returns the exact pivots charged to this dictionary
// (construction counts m; each Pivot counts one).
func (d *Dict) Pivots() int64 { return d.pivots }

// BasicVar returns the variable basic in row r.
func (d *Dict) BasicVar(r int) int { return d.basisOf[r] }

// RowOf returns the row where variable j is basic, -1 when cobasic.
func (d *Dict) RowOf(j int) int { return d.rowOf[j] }

// RHS returns row r's right-hand side bbar_r. The caller must not
// mutate it.
func (d *Dict) RHS(r int) *big.Rat { return d.rows[r][d.prog.n] }

// Entry returns tableau entry T[r][j]. The caller must not mutate it.
func (d *Dict) Entry(r, j int) *big.Rat { return d.rows[r][j] }

// Basis returns the basic variable set in ascending order.
func (d *Dict) Basis() []int {
	out := make([]int, 0, d.prog.m)
	for v := 0; v < d.prog.n; v++ {
		if d.rowOf[v] >= 0 {
			out = append(out, v)
		}
	}
	return out
}

// BasisAfter returns the ascending basis Pivot(r, s) would produce,
// without pivoting: a basis is a complete continuation (Rebuild), so
// deferring or enqueueing a neighbor needs nothing else. s must be
// cobasic.
func (d *Dict) BasisAfter(r, s int) []int {
	w := d.basisOf[r]
	out := make([]int, 0, d.prog.m)
	for v := 0; v < d.prog.n; v++ {
		if v == s || (d.rowOf[v] >= 0 && v != w) {
			out = append(out, v)
		}
	}
	return out
}

// X returns the vertex this dictionary represents.
func (d *Dict) X() []*big.Rat {
	x := make([]*big.Rat, d.prog.n)
	for j := range x {
		x[j] = newRat()
	}
	for r := 0; r < d.prog.m; r++ {
		x[d.basisOf[r]].Set(d.rows[r][d.prog.n])
	}
	return x
}

// Value returns the objective value C·x of the vertex.
func (d *Dict) Value() *big.Rat {
	v := newRat()
	if d.prog.c == nil {
		return v
	}
	var tmp big.Rat
	for r := 0; r < d.prog.m; r++ {
		if cj := d.prog.c[d.basisOf[r]]; cj != nil && cj.Sign() != 0 {
			tmp.Mul(cj, d.rows[r][d.prog.n])
			v.Add(v, &tmp)
		}
	}
	return v
}

// ReducedCost returns variable j's reduced cost c_j - c_B^T T[:,j]
// (zero for basic variables by construction).
func (d *Dict) ReducedCost(j int) *big.Rat {
	rc := newRat()
	d.reducedCostInto(rc, j)
	return rc
}

func (d *Dict) reducedCostInto(rc *big.Rat, j int) {
	if cj := d.prog.cAt(j); cj != nil {
		rc.Set(cj)
	} else {
		rc.SetInt64(0)
	}
	if d.prog.c == nil {
		return
	}
	var tmp big.Rat
	for r := 0; r < d.prog.m; r++ {
		cb := d.prog.c[d.basisOf[r]]
		if cb == nil || cb.Sign() == 0 || d.rows[r][j].Sign() == 0 {
			continue
		}
		tmp.Mul(cb, d.rows[r][j])
		rc.Sub(rc, &tmp)
	}
}

// Feasible reports whether every right-hand side is non-negative (the
// basis is primal feasible).
func (d *Dict) Feasible() bool {
	n := d.prog.n
	for r := 0; r < d.prog.m; r++ {
		if d.rows[r][n].Sign() < 0 {
			return false
		}
	}
	return true
}

// lexSignRow returns the sign of row r's perturbed value: the first
// nonzero of (bbar_r, T[r][lexCols[0]], ..., T[r][lexCols[m-1]]).
func (d *Dict) lexSignRow(r int) int {
	n := d.prog.n
	if s := d.rows[r][n].Sign(); s != 0 {
		return s
	}
	for _, c := range d.prog.lexCols {
		if s := d.rows[r][c].Sign(); s != 0 {
			return s
		}
	}
	return 0
}

// LexFeasible reports whether every row is lexicographically positive —
// the basis is a vertex of the primal-perturbed (simple) polytope.
func (d *Dict) LexFeasible() bool {
	for r := 0; r < d.prog.m; r++ {
		if d.lexSignRow(r) <= 0 {
			return false
		}
	}
	return true
}

// lexRatioLess reports whether row a's perturbed ratio against entering
// column s is lexicographically smaller than row b's.
func (d *Dict) lexRatioLess(a, b, s int) bool {
	n := d.prog.n
	da, db := d.rows[a][s], d.rows[b][s]
	var x, y big.Rat
	cmp := func(ca, cb *big.Rat) int {
		// ca/da vs cb/db with da, db > 0: compare ca*db vs cb*da.
		x.Mul(ca, db)
		y.Mul(cb, da)
		return x.Cmp(&y)
	}
	if c := cmp(d.rows[a][n], d.rows[b][n]); c != 0 {
		return c < 0
	}
	for _, col := range d.prog.lexCols {
		if c := cmp(d.rows[a][col], d.rows[b][col]); c != 0 {
			return c < 0
		}
	}
	return false
}

// LexMinRatioRow returns the unique lexicographic minimum-ratio row for
// entering column s — the leaving row that preserves lex-feasibility —
// or -1 when no row has a positive entry in s (the column is a
// recession direction). Uniqueness holds because the perturbed rows are
// linearly independent tuples, which is what makes the basis graph of
// the perturbed polytope well-defined.
func (d *Dict) LexMinRatioRow(s int) int {
	r := -1
	for i := 0; i < d.prog.m; i++ {
		if d.rows[i][s].Sign() <= 0 {
			continue
		}
		if r < 0 || d.lexRatioLess(i, r, s) {
			r = i
		}
	}
	return r
}

// RatioInto sets out to bbar_r / T[r][s] — the step length of the pivot
// (r, s), used to price a neighbor's objective value without pivoting:
// value' = value + ReducedCost(s) * ratio.
func (d *Dict) RatioInto(out *big.Rat, r, s int) {
	out.Quo(d.rows[r][d.prog.n], d.rows[r][s])
}

// SupportWords packs the support of the vertex — basic variables with a
// strictly positive unperturbed value — into bitset words over the n
// variables. Degenerate basic variables sit at zero and are excluded,
// so every basis of one vertex emits the identical support.
func (d *Dict) SupportWords(dst []uint64) []uint64 {
	words := (d.prog.n + 63) / 64
	if cap(dst) < words {
		dst = make([]uint64, words)
	} else {
		dst = dst[:words]
		for i := range dst {
			dst[i] = 0
		}
	}
	n := d.prog.n
	for r := 0; r < d.prog.m; r++ {
		if d.rows[r][n].Sign() > 0 {
			v := d.basisOf[r]
			dst[v/64] |= 1 << uint(v%64)
		}
	}
	return dst
}

// Clone deep-copies the dictionary (fuzz and test helper).
func (d *Dict) Clone() *Dict {
	c := &Dict{
		prog:    d.prog,
		rows:    make([][]*big.Rat, len(d.rows)),
		basisOf: append([]int(nil), d.basisOf...),
		rowOf:   append([]int(nil), d.rowOf...),
		pivots:  d.pivots,
	}
	for i, row := range d.rows {
		nr := make([]*big.Rat, len(row))
		for j, v := range row {
			nr[j] = newRat().Set(v)
		}
		c.rows[i] = nr
	}
	return c
}

// Equal compares two dictionaries entry-wise including the
// row/variable association (fuzz and test helper).
func (d *Dict) Equal(o *Dict) bool {
	if len(d.rows) != len(o.rows) {
		return false
	}
	for i := range d.basisOf {
		if d.basisOf[i] != o.basisOf[i] {
			return false
		}
	}
	for i, row := range d.rows {
		for j, v := range row {
			if v.Cmp(o.rows[i][j]) != 0 {
				return false
			}
		}
	}
	return true
}

func canceled(cancel <-chan struct{}) bool {
	if cancel == nil {
		return false
	}
	select {
	case <-cancel:
		return true
	default:
		return false
	}
}
