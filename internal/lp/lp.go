// Package lp is the exact linear programming core of the interactive
// tier: a two-phase simplex solver on fraction-free integer
// dictionaries (the lrs representation) for
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
// exact pivot/ratio/sign primitives. It is the only exact dictionary in
// the tree: the on-demand generator walks the basis graph of the
// lex-perturbed polytope through it, internal/revsearch runs its
// reverse search on it (starting from a nil-objective Solve, i.e. the
// phase-1 dictionary), and the FuzzSimplexPivot and FuzzRevsearchPivot
// harnesses round-trip pivot/unpivot exactness on it.
//
// A dictionary stores det·T — integers under one positive denominator —
// on int64 while every magnitude stays below 2^31 and on big.Int from
// the pivot that crosses that bound (width.go holds the arithmetic that
// differs by width; everything in this file exists once). Rationals
// appear only at the edges: Problem, Solution, the objective weights
// and the accessors that price a neighbor.
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
		b[i] = new(big.Rat)
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
	// Phase1Wide reports that the extended phase-1 dictionary left
	// int64 (Dict answers for itself through Wide).
	Phase1Wide bool
}

// narrowBound is the magnitude below which a dictionary stays on int64:
// with every |entry| and det under 2^31, each two-factor product and
// each difference of two products fits int64 with no per-operation
// check. Solve reads it once per program; only tests lower it.
var narrowBound int64 = 1 << 31

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
	if len(keep) < m {
		aug = aug.SelectRows(keep)
	}
	core, scale := newProgram(aug, p.C, narrowBound)

	basis, ext, err := phase1(core, scale, opts.Cancel)
	sol := &Solution{Pivots: ext.pivots, Phase1Pivots: ext.pivots, Phase1Wide: ext.Wide()}
	if err != nil {
		if errors.Is(err, errInfeasible) {
			sol.Status = Infeasible
			return sol, nil
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
			sol.Pivots += d.pivots
			return sol, nil
		}
		d.Pivot(r, s)
	}
	sol.Status = Optimal
	sol.Dict = d
	sol.Basis = d.Basis()
	sol.X = d.X()
	sol.Value = d.Value()
	sol.Pivots += d.pivots
	return sol, nil
}

// program is a prepared LP with independent rows: the shared immutable
// state every Dict of one solve points back to.
type program struct {
	m, n int
	// rows is the m x (n+1) integer matrix every dictionary of the
	// program is a fraction-free elimination of: row i of [A | b] times
	// the lcm Lᵢ of its denominators. narrow is the same image on int64,
	// nil when an entry reaches bound.
	rows   []big.Int
	narrow []int64
	bound  int64
	c      []*big.Rat // nil = zero objective
	// lexCols is the basis anchoring the primal lexicographic
	// perturbation b(eps) = b + A_B0 (eps, eps^2, ...): row i's
	// perturbed value reads (bbar_i, T[i][lexCols[0]], ...). Fixed
	// after phase 1.
	lexCols []int
}

// newProgram scales each row of aug = [A | b] to integers and returns
// the program with the row multipliers Lᵢ (phase 1 seeds its artificials
// with them).
func newProgram(aug *ratmat.Matrix, c []*big.Rat, bound int64) (*program, []big.Int) {
	m, w := aug.Rows(), aug.Cols()
	p := &program{m: m, n: w - 1, rows: make([]big.Int, m*w), bound: bound, c: c}
	scale := make([]big.Int, m)
	var g big.Int
	for i := 0; i < m; i++ {
		l := scale[i].SetInt64(1)
		for j := 0; j < w; j++ {
			den := aug.At(i, j).Denom()
			l.Mul(l, g.Quo(den, g.GCD(nil, nil, l, den)))
		}
		for j := 0; j < w; j++ {
			v := aug.At(i, j)
			e := &p.rows[i*w+j]
			e.Mul(v.Num(), e.Quo(l, v.Denom()))
		}
	}
	p.seal()
	return p, scale
}

// seal derives the int64 image of rows, when there is one.
func (p *program) seal() {
	p.narrow = make([]int64, len(p.rows))
	for k := range p.rows {
		v := &p.rows[k]
		if !v.IsInt64() || v.Int64() >= p.bound || -v.Int64() >= p.bound {
			p.narrow = nil
			return
		}
		p.narrow[k] = v.Int64()
	}
}

// Dict is one simplex dictionary T = A_B^{-1}[A | b] of a solved
// program, with the right-hand side in column n, stored as the integers
// det·T under one denominator det = |det A'_B| > 0 (A' the program's
// integer rows). The representation is exact and uniquely determined by
// the basis and row order at either width, so a pivot followed by its
// inverse restores the identical entries — the invariant
// FuzzSimplexPivot and FuzzRevsearchPivot pin. Methods that do not
// mutate (including Rebuild) are safe for concurrent use.
type Dict struct {
	prog *program
	// Exactly one body is live, m x (n+1) row-major: a under det while
	// the dictionary is narrow, w under wdet once it has widened.
	a       []int64
	det     int64
	w       []big.Int
	wdet    big.Int
	basisOf []int // row -> variable
	rowOf   []int // variable -> row, -1 when cobasic
	pivots  int64
}

var bigOne = big.NewInt(1)

// fromBasis rebuilds the dictionary of a basis by fraction-free
// Gauss-Jordan elimination on the basis columns of the program's
// integer rows (det starts at 1); rows end up sorted by basic variable.
// Counts m pivots.
func (p *program) fromBasis(basis []int) (*Dict, error) {
	if len(basis) != p.m {
		return nil, fmt.Errorf("lp: basis has %d variables, want %d", len(basis), p.m)
	}
	d := p.load(bigOne)
	copy(d.basisOf, basis)
	for i, v := range basis {
		if v < 0 || v >= p.n {
			return nil, fmt.Errorf("lp: basis variable %d out of range", v)
		}
		pr := -1
		for r := i; r < p.m; r++ {
			if d.Sign(r, v) != 0 {
				pr = r
				break
			}
		}
		if pr < 0 {
			return nil, fmt.Errorf("lp: basis column %d is dependent", v)
		}
		d.swapRows(i, pr)
		d.eliminate(i, v)
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

// Pivot makes cobasic variable s basic in row r. The inverse of
// Pivot(r, s) is Pivot(r, w) with w the variable previously basic in r.
func (d *Dict) Pivot(r, s int) {
	w := d.basisOf[r]
	d.eliminate(r, s)
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

// Wide reports that the dictionary has left int64.
func (d *Dict) Wide() bool { return d.w != nil }

// RHS returns row r's right-hand side bbar_r.
func (d *Dict) RHS(r int) *big.Rat { return d.Entry(r, d.prog.n) }

// Entry returns tableau entry T[r][j].
func (d *Dict) Entry(r, j int) *big.Rat {
	var x, y big.Int
	return new(big.Rat).SetFrac(d.num(&x, r, j), d.denom(&y))
}

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
		x[j] = new(big.Rat)
	}
	for r := 0; r < d.prog.m; r++ {
		x[d.basisOf[r]] = d.RHS(r)
	}
	return x
}

// Value returns the objective value C·x of the vertex.
func (d *Dict) Value() *big.Rat {
	v := new(big.Rat)
	d.costInto(v, d.prog.n)
	return v
}

// costInto sets out to c_B^T T[:,j]: the weighted numerators are summed
// first and divided by det once.
func (d *Dict) costInto(out *big.Rat, j int) {
	out.SetInt64(0)
	if d.prog.c == nil {
		return
	}
	var tmp big.Rat
	var z big.Int
	for r := 0; r < d.prog.m; r++ {
		cb := d.prog.c[d.basisOf[r]]
		if cb == nil || cb.Sign() == 0 || d.Sign(r, j) == 0 {
			continue
		}
		tmp.SetInt(d.num(&z, r, j))
		out.Add(out, tmp.Mul(cb, &tmp))
	}
	if out.Sign() != 0 {
		out.Quo(out, tmp.SetInt(d.denom(&z)))
	}
}

// ReducedCost returns variable j's reduced cost c_j - c_B^T T[:,j]
// (zero for basic variables by construction).
func (d *Dict) ReducedCost(j int) *big.Rat {
	rc := new(big.Rat)
	d.reducedCostInto(rc, j)
	return rc
}

func (d *Dict) reducedCostInto(rc *big.Rat, j int) {
	d.costInto(rc, j)
	rc.Neg(rc)
	if d.prog.c != nil && d.prog.c[j] != nil {
		rc.Add(rc, d.prog.c[j])
	}
}

// Feasible reports whether every right-hand side is non-negative (the
// basis is primal feasible).
func (d *Dict) Feasible() bool {
	n := d.prog.n
	for r := 0; r < d.prog.m; r++ {
		if d.Sign(r, n) < 0 {
			return false
		}
	}
	return true
}

// lexSignRow returns the sign of row r's perturbed value: the first
// nonzero of (bbar_r, T[r][lexCols[0]], ..., T[r][lexCols[m-1]]).
func (d *Dict) lexSignRow(r int) int {
	if s := d.Sign(r, d.prog.n); s != 0 {
		return s
	}
	for _, c := range d.prog.lexCols {
		if s := d.Sign(r, c); s != 0 {
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
func (d *Dict) lexRatioLess(a, b, s int, scratch *[2]big.Int) bool {
	if c := d.ratioCmp(a, b, s, d.prog.n, scratch); c != 0 {
		return c < 0
	}
	for _, col := range d.prog.lexCols {
		if c := d.ratioCmp(a, b, s, col, scratch); c != 0 {
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
	var scratch [2]big.Int
	r := -1
	for i := 0; i < d.prog.m; i++ {
		if d.Sign(i, s) <= 0 {
			continue
		}
		if r < 0 || d.lexRatioLess(i, r, s, &scratch) {
			r = i
		}
	}
	return r
}

// RatioInto sets out to bbar_r / T[r][s] — the step length of the pivot
// (r, s), used to price a neighbor's objective value without pivoting:
// value' = value + ReducedCost(s) * ratio.
func (d *Dict) RatioInto(out *big.Rat, r, s int) {
	var x, y big.Int
	out.SetFrac(d.num(&x, r, d.prog.n), d.num(&y, r, s))
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
		if d.Sign(r, n) > 0 {
			v := d.basisOf[r]
			dst[v/64] |= 1 << uint(v%64)
		}
	}
	return dst
}

// Equal compares two dictionaries of one program by value, including
// the row/variable association and across widths: det is a function of
// the basis, so equal tableaus have equal numerators (fuzz and test
// helper).
func (d *Dict) Equal(o *Dict) bool {
	if d.prog.m != o.prog.m || d.prog.n != o.prog.n {
		return false
	}
	for i := range d.basisOf {
		if d.basisOf[i] != o.basisOf[i] {
			return false
		}
	}
	var x, y big.Int
	if d.denom(&x).Cmp(o.denom(&y)) != 0 {
		return false
	}
	for r := 0; r < d.prog.m; r++ {
		for j := 0; j <= d.prog.n; j++ {
			if d.num(&x, r, j).Cmp(o.num(&y, r, j)) != 0 {
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
