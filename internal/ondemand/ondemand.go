// Package ondemand is the interactive tier's EFM generator: instead of
// enumerating the whole elementary-flux-mode set batch-style, it yields
// modes ONE AT A TIME, ranked by an exact-rational objective, with
// first-result latency of a single LP solve — the column-generation
// serving pattern of Oddsdóttir et al. (arXiv:1410.2680) rebuilt on a
// certifiable core.
//
// # Formulation
//
// Like internal/revsearch, the generator works on the pointed split
// cone: every reversible reaction is split into an irreversible
// forward/backward pair (nullspace.Heuristics.SplitAllReversible), the
// split stoichiometry N' is stacked over the normalization row 1ᵀ, and
//
//	P = {x : N'x = 0, 1ᵀx = 1, x ≥ 0}
//
// is the polytope whose vertices are exactly the normalized extreme
// rays of the split cone — the EFMs, plus one futile two-cycle per
// split pair (dropped on emission) and a ± orientation twin for every
// fully reversible mode (folded away by support dedup). All arithmetic
// is exact — internal/lp's integer dictionaries, big.Rat objective
// values; no float enters any accept/reject decision, so every streamed
// mode is exactly a vertex of P.
//
// # Master / pricing loop
//
// The driver is the column-generation loop restructured for exactness.
// The master state is the set of already-found modes plus a priority
// frontier of candidate bases discovered on their boundaries; the
// pricing step extracts the next mode by solving for the best unvisited
// vertex of P:
//
//  1. Solve min c·x over P exactly (two-phase simplex) — the first
//     mode is the objective-optimal vertex, after one LP.
//  2. Maintain a best-first queue over the basis graph of the
//     lex-perturbed polytope: popping the least (value, basis) node,
//     rebuilding its dictionary, emitting its vertex (fold split
//     pairs through nullspace.Problem.Fold, drop futile cycles, dedup
//     against the emitted set), and pushing every neighbor basis
//     priced in the parent dictionary as
//     value' = value + ReducedCost(s)·ratio — no pivot needed to rank
//     a neighbor.
//
// Because the lex perturbation makes P simple, the basis graph is the
// perturbed polytope's vertex graph, which is connected (revsearch's
// spanning tree is a subgraph), so the walk reaches every vertex:
// run to exhaustion, the stream is exactly the full EFM set. And
// because sub-level sets of a linear objective induce connected
// subgraphs on a polytope graph, the pop sequence is nondecreasing in
// the true objective: the stream really is ranked, not just biased.
// Both properties are CI-enforced (fingerprint equality against the
// nullspace backend; monotonicity in the property tests).
package ondemand

import (
	"container/heap"
	"fmt"
	"math/big"
	"time"

	"elmocomp/internal/bitset"
	"elmocomp/internal/core"
	"elmocomp/internal/lp"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/ratmat"
)

// Options configures a generation run.
type Options struct {
	// Objective holds the exact per-reduced-column weights of the
	// ranking objective c: modes stream in nondecreasing order of
	// Σ c_j · [j ∈ support] evaluated on the normalized vertex (both
	// split directions of a reversible column inherit its weight, so
	// the objective prices |flux|). nil entries and a nil slice mean
	// weight zero; with an all-zero objective the stream degenerates to
	// a deterministic unranked enumeration.
	Objective []*big.Rat
	// MaxModes stops the stream after this many emitted modes; <= 0
	// exhausts the cone.
	MaxModes int
	// Cancel aborts the run (error matches core.ErrCanceled).
	Cancel <-chan struct{}
	// Progress, when set, receives a status line every few hundred
	// pops and on every emission.
	Progress func(msg string)
}

// Mode is one streamed elementary flux mode.
type Mode struct {
	// Rank is the 1-based emission index.
	Rank int
	// Support is the mode's support over the caller's (reduced)
	// columns, split pairs folded.
	Support bitset.Set
	// Value is the exact objective value of the emitting vertex.
	Value *big.Rat
}

// Stats summarizes a generation run.
type Stats struct {
	// Emitted counts streamed modes; Exhausted reports that the basis
	// graph was fully traversed (the stream is the complete EFM set).
	Emitted   int  `json:"emitted"`
	Exhausted bool `json:"exhausted"`
	// FirstModeSeconds is the latency from Generate entry to the first
	// emission — the interactive tier's headline metric.
	FirstModeSeconds float64 `json:"first_mode_seconds"`
	// Pivots counts every exact simplex pivot (phase 1, root solve,
	// and one dictionary rebuild per popped basis); Phase1Pivots the
	// feasibility subset.
	Pivots       int64 `json:"pivots"`
	Phase1Pivots int64 `json:"phase1_pivots"`
	// Bases counts popped (visited) bases — the traversal cost
	// analogue of revsearch's Bases.
	Bases int64 `json:"bases"`
	// Enqueued counts pushed frontier nodes; PeakFrontier the largest
	// in-memory frontier.
	Enqueued     int64 `json:"enqueued"`
	PeakFrontier int   `json:"peak_frontier"`
	// Duplicates counts pops whose folded support was already emitted
	// (degenerate co-bases and ± orientation twins); FutileSkips the
	// split forward/backward two-cycles dropped on emission.
	// VerifyRejects is never set: a vertex of P is elementary by
	// construction (its support columns are independent in [N'; 1ᵀ]),
	// so no vertex is re-checked; bench/ still reads it as
	// ondemand.verify_rejects, pinned at 0.
	Duplicates    int64 `json:"duplicates"`
	FutileSkips   int64 `json:"futile_skips"`
	VerifyRejects int64 `json:"verify_rejects"`
	// Widened counts the dictionaries that left int64 for big.Int: the
	// phase-1 one, the root, and one per rebuilt basis. Zero on a
	// network whose determinants stay below 2^31.
	Widened int64 `json:"widened,omitempty"`
}

// node is one frontier entry: a basis of the lex-perturbed polytope
// and the exact objective value of its vertex. key is the fixed-width
// big-endian encoding of the basis, so string order == lexicographic
// basis order (the deterministic tiebreak).
type node struct {
	value *big.Rat
	basis []int
	key   string
}

// frontier is a min-heap over (value, key), driven by container/heap.
type frontier []*node

func (f frontier) Len() int { return len(f) }
func (f frontier) Less(i, j int) bool {
	if c := f[i].value.Cmp(f[j].value); c != 0 {
		return c < 0
	}
	return f[i].key < f[j].key
}
func (f frontier) Swap(i, j int)       { f[i], f[j] = f[j], f[i] }
func (f *frontier) Push(x interface{}) { *f = append(*f, x.(*node)) }
func (f *frontier) Pop() interface{} {
	old := *f
	n := len(old)
	top := old[n-1]
	old[n-1] = nil
	*f = old[:n-1]
	return top
}

func basisKey(basis []int) string {
	buf := make([]byte, 4*len(basis))
	for i, v := range basis {
		buf[4*i] = byte(v >> 24)
		buf[4*i+1] = byte(v >> 16)
		buf[4*i+2] = byte(v >> 8)
		buf[4*i+3] = byte(v)
	}
	return string(buf)
}

// Generate streams the elementary flux modes of the cone {v : Nv = 0,
// v_j >= 0 for irreversible j} in nondecreasing objective order,
// calling emit once per mode, and returns the run's statistics. It
// stops at opts.MaxModes emitted modes, at objective/cone exhaustion
// (Stats.Exhausted), or on cancellation (error matches
// core.ErrCanceled).
func Generate(N *ratmat.Matrix, rev []bool, opts Options, emit func(Mode)) (Stats, error) {
	start := time.Now()
	var st Stats
	if N.Cols() == 0 {
		st.Exhausted = true
		return st, nil
	}
	if opts.Objective != nil && len(opts.Objective) != N.Cols() {
		return st, fmt.Errorf("ondemand: objective has %d weights, matrix has %d columns", len(opts.Objective), N.Cols())
	}
	p, err := nullspace.New(N, rev, nullspace.Heuristics{SplitAllReversible: true})
	if err != nil {
		return st, err
	}
	q := p.Q()

	// The objective maps each split column back to its owning reduced
	// column's weight.
	prob := lp.NormalizedCone(p.NExact)
	if opts.Objective != nil {
		prob.C = make([]*big.Rat, q)
		for j := 0; j < q; j++ {
			if w := opts.Objective[p.OrigCol(p.Perm[j])]; w != nil && w.Sign() != 0 {
				prob.C[j] = w
			}
		}
	}

	sol, err := lp.Solve(prob, lp.Options{Cancel: opts.Cancel})
	if err != nil {
		return st, err
	}
	st.Pivots = sol.Pivots
	st.Phase1Pivots = sol.Phase1Pivots
	if sol.Phase1Wide {
		st.Widened++
	}
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		// Empty polytope: the cone is {0} and the EFM set is empty —
		// a successful exhaustive run, mirroring the batch backends.
		st.Exhausted = true
		return st, nil
	default:
		return st, fmt.Errorf("ondemand: root LP is %v (impossible: the polytope lies in the standard simplex)", sol.Status)
	}
	if sol.Dict.Wide() {
		st.Widened++
	}

	// Best-first traversal state. visited marks bases at push time so
	// each basis is enqueued at most once; emitted dedups folded
	// supports across all pops.
	var pq frontier
	visited := make(map[string]bool)
	rootKey := basisKey(sol.Basis)
	rootDict := sol.Dict
	heap.Push(&pq, &node{value: sol.Value, basis: sol.Basis, key: rootKey})
	visited[rootKey] = true
	st.Enqueued++
	st.PeakFrontier = 1

	var emitted bitset.Distinct
	var words []uint64
	var ratio big.Rat

	for len(pq) > 0 {
		if canceled(opts.Cancel) {
			return st, core.ErrCanceled
		}
		n := heap.Pop(&pq).(*node)
		var d *lp.Dict
		if n.key == rootKey && rootDict != nil {
			d, rootDict = rootDict, nil
		} else {
			var err error
			d, err = sol.Dict.Rebuild(n.basis)
			if err != nil {
				return st, fmt.Errorf("ondemand: rebuilding frontier basis: %w", err)
			}
			st.Pivots += d.Pivots()
			if d.Wide() {
				st.Widened++
			}
		}
		st.Bases++
		if opts.Progress != nil && st.Bases%256 == 0 {
			opts.Progress(fmt.Sprintf("on-demand: %d modes emitted, %d bases visited, frontier %d", st.Emitted, st.Bases, len(pq)))
		}

		// Emit the vertex unless it is a futile split two-cycle or a
		// fold-duplicate of an already-streamed mode. A vertex of P is
		// elementary by construction: its support columns are linearly
		// independent in [N'; 1ᵀ], so N'[:, S] has nullity exactly 1.
		words = d.SupportWords(words)
		fold, ok := p.Fold(words)
		switch {
		case !ok:
			st.FutileSkips++
		case !emitted.Add(fold):
			st.Duplicates++
		default:
			st.Emitted++
			if st.Emitted == 1 {
				st.FirstModeSeconds = time.Since(start).Seconds()
			}
			if opts.Progress != nil {
				opts.Progress(fmt.Sprintf("on-demand: mode %d (value %s) after %d bases", st.Emitted, n.value.RatString(), st.Bases))
			}
			emit(Mode{Rank: st.Emitted, Support: fold, Value: new(big.Rat).Set(n.value)})
			if opts.MaxModes > 0 && st.Emitted >= opts.MaxModes {
				return st, nil
			}
		}

		// Expand: price every neighbor basis in the parent dictionary.
		for s := 0; s < q; s++ {
			if d.RowOf(s) >= 0 {
				continue
			}
			r := d.LexMinRatioRow(s)
			if r < 0 {
				continue
			}
			child := d.BasisAfter(r, s)
			key := basisKey(child)
			if visited[key] {
				continue
			}
			visited[key] = true
			d.RatioInto(&ratio, r, s)
			val := new(big.Rat).Mul(d.ReducedCost(s), &ratio)
			val.Add(val, n.value)
			heap.Push(&pq, &node{value: val, basis: child, key: key})
			st.Enqueued++
			if len(pq) > st.PeakFrontier {
				st.PeakFrontier = len(pq)
			}
		}
	}
	st.Exhausted = true
	return st, nil
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
