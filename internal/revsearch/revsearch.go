// Package revsearch enumerates elementary flux modes by lexicographic
// reverse search (Avis–Fukuda, the lrs/mplrs family) — the second
// algorithm family next to the double-description Nullspace drivers,
// sharing nothing with them past the exact-rational linear algebra and
// the canonical support representation. That independence is the point:
// a fingerprint match between the two families is evidence against a
// shared algorithmic bug, not just against divergent implementations.
//
// The cone is made pointed by splitting every reversible reaction
// (exactly the preparation the combinatorial drivers use), then sliced
// by the normalization plane 1^T x = 1: EFMs correspond one-to-one to
// the vertices of the resulting polytope P = {x : Ax = b, x >= 0}. The
// enumerator visits every lexicographically feasible dictionary of P by
// inverting a deterministic simplex rule — from any dictionary, the
// forward rule (least-index entering on a symbolically perturbed
// objective, unique lex-ratio leaving on a primally perturbed
// right-hand side) walks to a unique optimal root; reverse search
// explores that implicit tree depth-first from the root, holding one
// dictionary and one (row, column) pair per level: memory is O(depth),
// never O(output). Disjoint subtrees are independent, so a worker pool
// splits the traversal at basis snapshots with no synchronization
// beyond the job queue and the support-dedup set.
//
// The dictionary, its phase 1 and the primal perturbation are
// internal/lp's (lp.Dict); this package holds only what is reverse
// search: the dual perturbation and lazy child test (dict.go) and the
// traversal with its job pool (search.go).
package revsearch

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"elmocomp/internal/core"
	"elmocomp/internal/lp"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/ratmat"
)

// ErrCanceled is returned when Options.Cancel is closed mid-run. It is
// the engine package's sentinel, so drivers classify cancellation
// uniformly across backends.
var ErrCanceled = core.ErrCanceled

// Options configures one enumeration run.
type Options struct {
	// Workers is the number of goroutines exploring disjoint subtrees.
	// 0 means GOMAXPROCS; 1 runs the plain depth-first traversal.
	// Results are byte-identical at every setting.
	Workers int
	// SubtreeBudget is the number of tree nodes one scheduled job may
	// visit before deferring not-yet-descended children as new jobs
	// (restartable subtrees). 0 means the default (2048). Only the job
	// granularity changes with the budget, never the result.
	SubtreeBudget int
	// Cancel aborts the run with ErrCanceled when closed. Polled at
	// every tree node and every 64 simplex iterations.
	Cancel <-chan struct{}
	// Progress, when set, receives (bases visited, distinct vertices)
	// every 4096 nodes.
	Progress func(bases, vertices int64)
}

// Stats counts the run's work. Bases, Vertices, MaxDepth and (for a
// fixed budget) Jobs are deterministic; Pivots varies only with the job
// split points, which are a pure function of the budget.
type Stats struct {
	// Bases is the number of reverse-search tree nodes — lex-feasible
	// dictionaries — visited. The backend's analogue of the
	// double-description drivers' candidate count.
	Bases int64 `json:"bases"`
	// Vertices is the number of distinct polytope vertices found (EFM
	// supports before canonical folding of split futile pairs and ±
	// orientation duplicates).
	Vertices int64 `json:"vertices"`
	// Pivots is the total number of exact tableau pivots, including
	// tentative child-test pivots, their inverses, and basis rebuilds.
	Pivots int64 `json:"pivots"`
	// Phase1Pivots and RootPivots count the startup cost: reaching a
	// feasible basis, then the reverse-search root.
	Phase1Pivots int64 `json:"phase1_pivots"`
	RootPivots   int64 `json:"root_pivots"`
	// Jobs is the number of subtree jobs scheduled (1 when the whole
	// tree fit in the first budget).
	Jobs int64 `json:"jobs"`
	// MaxDepth is the deepest tree level visited.
	MaxDepth int `json:"max_depth"`
	// PeakBytes is the largest estimated resident footprint: one
	// dictionary per worker plus the support-dedup set.
	PeakBytes int64 `json:"peak_bytes"`
	// Widened counts the dictionaries that left int64 for big.Int: the
	// phase-1 one, the root, and one per job. Zero on a network whose
	// determinants stay below 2^31.
	Widened int64 `json:"widened,omitempty"`
}

// Result is a completed enumeration.
type Result struct {
	// Problem is the pointed nullspace preparation the supports refer
	// to (permuted split column space).
	Problem *nullspace.Problem
	// Modes holds the vertex supports as a bits-only mode set in
	// permuted index space, sorted lexicographically — the same shape
	// the combinatorial engine produces, so core.CanonicalSupports and
	// the fingerprint pipeline apply unchanged.
	Modes *core.ModeSet
	Stats Stats
}

// CoreResult adapts the enumeration for core's canonicalization
// helpers (CanonicalSupports, IsElementaryWS).
func (r *Result) CoreResult() *core.Result {
	return &core.Result{Problem: r.Problem, Modes: r.Modes}
}

// Run enumerates the EFMs of the reduced network N (with per-column
// reversibility flags rev) by reverse search. The preparation always
// splits every reversible reaction; heuristic row ordering is
// irrelevant here (it permutes the variable order, which reshapes the
// tree but not the vertex set).
func Run(N *ratmat.Matrix, rev []bool, opts Options) (*Result, error) {
	p, err := nullspace.New(N, rev, nullspace.Heuristics{SplitAllReversible: true})
	if err != nil {
		return nil, err
	}
	return RunProblem(p, opts)
}

// RunProblem enumerates on an already-prepared pointed problem.
func RunProblem(p *nullspace.Problem, opts Options) (*Result, error) {
	for _, r := range p.Rev {
		if r {
			return nil, errors.New("revsearch: problem is not pointed (reversible column survived splitting)")
		}
	}
	res := &Result{Problem: p}

	// A nil objective stops lp.Solve at the phase-1 dictionary: rebuilt
	// on the feasible basis, which also anchors the lexicographic
	// perturbation every later dictionary of the run shares.
	sol, err := lp.Solve(lp.NormalizedCone(p.NExact), lp.Options{Cancel: opts.Cancel})
	if err != nil {
		return nil, err
	}
	if sol.Status == lp.Infeasible {
		// No nonzero non-negative steady-state flux: the normalization
		// slice is empty and so is the EFM set — a successful zero-mode
		// run, mirroring the double-description drivers.
		res.Modes = core.NewModeSet(p.Q(), p.Q(), nil)
		return res, nil
	}
	root := sol.Dict
	if !root.LexFeasible() {
		return nil, errors.New("revsearch: phase-1 dictionary is not lex-feasible")
	}
	res.Stats.Phase1Pivots = sol.Pivots
	rebuild := root.Pivots()
	if err := rootDictionary(root, opts.Cancel); err != nil {
		return nil, err
	}
	res.Stats.RootPivots = root.Pivots() - rebuild

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	budget := opts.SubtreeBudget
	if budget <= 0 {
		budget = 2048
	}
	if workers == 1 {
		// Sequential reference traversal: one unbounded job.
		budget = int(^uint(0) >> 1)
	}

	s := &search{root: root, col: newCollector(p.Q()), opts: opts, budget: budget}
	s.cond = sync.NewCond(&s.mu)
	s.pivots.Add(res.Stats.Phase1Pivots + res.Stats.RootPivots)
	if sol.Phase1Wide {
		s.widened.Add(1)
	}
	if root.Wide() {
		s.widened.Add(1)
	}
	s.enqueue(&job{basis: root.Basis(), depth: 0})

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &walker{s: s}
			for j := s.next(); j != nil; j = s.next() {
				w.runJob(j)
				s.done()
			}
		}()
	}
	wg.Wait()

	if s.failed != nil {
		return nil, s.failed
	}
	res.Stats.Bases = s.bases.Load()
	res.Stats.Vertices = int64(len(s.col.supports))
	res.Stats.Pivots = s.pivots.Load()
	res.Stats.Jobs = s.jobs.Load()
	res.Stats.MaxDepth = int(s.maxDepth.Load())
	res.Stats.PeakBytes = s.peak.Load() + s.col.bytes
	res.Stats.Widened = s.widened.Load()
	res.Modes = modeSetFromSupports(p.Q(), s.col)
	return res, nil
}

// modeSetFromSupports sorts the collected supports lexicographically by
// their packed words and packs them into a bits-only ModeSet — the
// deterministic merge: the collected set is scheduling-independent, so
// the sorted ModeSet is byte-identical for every worker count and
// budget.
func modeSetFromSupports(q int, c *collector) *core.ModeSet {
	keys := make([]string, 0, len(c.supports))
	for k := range c.supports {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	set := core.NewModeSet(q, q, nil)
	for _, k := range keys {
		set.AppendMode(c.supports[k], nil, nil, 0)
	}
	return set
}

// String renders the stats one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("bases=%d vertices=%d pivots=%d (phase1=%d root=%d) jobs=%d maxdepth=%d",
		s.Bases, s.Vertices, s.Pivots, s.Phase1Pivots, s.RootPivots, s.Jobs, s.MaxDepth)
}
