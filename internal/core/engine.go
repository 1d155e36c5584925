package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"elmocomp/internal/bptree"
	"elmocomp/internal/cluster"
	"elmocomp/internal/linalg"
	"elmocomp/internal/nullspace"
)

// ErrBudget marks a run aborted because an intermediate mode set
// exceeded Options.MaxModes. The divide-and-conquer driver re-splits a
// subproblem on exactly this error (and propagates every other failure,
// e.g. a communication fault, unchanged).
var ErrBudget = errors.New("core: intermediate mode budget exceeded")

// ErrCanceled marks a run aborted through Options.Cancel. It is the
// cluster substrate's sentinel, so a cancel matches the same error
// whether the serial driver saw the channel between iterations or a
// distributed driver carried it through the group's abort latch.
var ErrCanceled = cluster.ErrCanceled

// Options configure a Nullspace Algorithm run.
type Options struct {
	// LastRow, when positive, stops the iteration before processing
	// permuted row LastRow (exclusive bound). Used by divide-and-conquer
	// via Proposition 1. 0 means run to completion.
	LastRow int
	// MaxModes aborts the run with an error if an intermediate set
	// exceeds this many columns (a memory guard). 0 means unlimited.
	MaxModes int
	// MemBudget, in bytes, bounds what the engine keeps resident
	// BETWEEN iteration rounds: once twice the surviving mode set's flat
	// size outgrows the budget the store spills it to disk,
	// re-materializing it flat before the next row. Results are
	// bit-identical at every setting. 0 means unbudgeted (always flat).
	// The within-row working peak (current set + candidates + successor,
	// all flat) is not reduced — bounding it is the divide-and-conquer
	// driver's job, which re-splits via StrictMemBudget.
	MemBudget int64
	// StrictMemBudget makes Hold fail with ErrMemBudget (matching
	// ErrBudget) when a surviving set's FLAT footprint exceeds
	// MemBudget, instead of spilling. Set by the dnc driver while
	// re-split depth remains, so over-budget subproblems split rather
	// than thrash; standalone callers leave it false.
	StrictMemBudget bool
	// SpillDir is where the store creates its spill files (os.TempDir
	// when empty). A file is unlinked as soon as it is created, so the
	// directory stays empty whatever happens to the process.
	SpillDir string
	// DisableHybrid switches off both per-row bit-pattern trees. One is
	// the generation tree over the negative columns, which lets a large
	// row count the pairs the support pre-test rejects by the subtree
	// instead of probing each (IterStats.Visited says how many were
	// probed). The other, on a pointed problem (no reversible rows)
	// only, is the tree over all columns whose superset query rejects
	// candidates ahead of the rank test (IterStats.TreeRejects). Neither
	// changes a candidate or the result — the pre-test and the rank test
	// stay the only arbiters — and no request path sets this: tests and
	// benchmarks use the switched-off engine, a linear sweep over every
	// pair with the rank test behind it, as the reference for the
	// default one.
	DisableHybrid bool
	// Workers is the number of shared-memory worker goroutines used for
	// candidate generation and merging within one engine (or, in the
	// distributed drivers, within one compute node). 0 means GOMAXPROCS;
	// 1 runs single-threaded. Results are bit-identical for every worker
	// count: same modes, same values, same canonical order.
	Workers int
	// Trace, when set, is invoked after every iteration with the
	// iteration statistics and the new mode set (used to print the
	// paper's Figure 2 trace).
	Trace func(it IterStats, set *ModeSet)
	// Cancel, when non-nil, aborts the run at the next iteration
	// boundary once closed; the run then returns an error matching
	// ErrCanceled. A group of several nodes additionally trips its
	// communicator's abort latch, which unblocks a pending collective
	// without waiting for the row to end.
	Cancel <-chan struct{}
}

// zeroTol is the zero tolerance applied to normalized mode values. It is
// not an option: DESIGN §7 records the plateau (1e-7…1e-11) outside which
// a run finishes with the wrong mode set. Only this package's tests
// assign it, to show the fixtures sit inside that plateau.
var zeroTol = linalg.DefaultTol

// IterStats records one iteration of the algorithm.
type IterStats struct {
	Row            int // permuted kernel row processed
	Reaction       int // reduced reaction index (Problem.Perm[Row])
	Reversible     bool
	Pos, Neg, Zero int   // column partition sizes
	Pairs          int64 // candidate modes generated (|pos|·|neg|)
	Visited        int64 // pairs probed one by one; the rest were pre-test rejections counted by the subtree
	Prefiltered    int64 // rejected by the support-size pre-test
	TreeRejects    int64 // rejected by the hybrid bit-pattern-tree prefilter
	Tested         int64 // rank tests run
	Eliminated     int64 // rank tests that ran an elimination; the rest were decided by counting live rows
	Accepted       int64 // candidates surviving the test
	Duplicates     int64 // removed duplicate candidates
	ModesOut       int   // columns entering the next iteration
	GenSeconds     float64
	TestSeconds    float64
	MergeSeconds   float64
	PeakBytes      int64
}

// Result is the outcome of a run.
type Result struct {
	Problem *nullspace.Problem
	// Modes is the final mode set: when the run completes (LastRow==0 or
	// ==q), these are the elementary flux modes in permuted index space.
	Modes *ModeSet
	Stats []IterStats
	// Store counts the between-rounds store's spill activity (zero for
	// unbudgeted runs — the store is then an inert pass-through).
	Store StoreStats
}

// TotalPairs sums the candidate modes generated across iterations (the
// paper's "total # candidate modes").
func (r *Result) TotalPairs() int64 {
	var t int64
	for _, s := range r.Stats {
		t += s.Pairs
	}
	return t
}

// PeakBytes returns the maximum resident mode-set payload observed.
func (r *Result) PeakBytes() int64 {
	var m int64
	for _, s := range r.Stats {
		if s.PeakBytes > m {
			m = s.PeakBytes
		}
	}
	return m
}

// InitialModeSet builds the iteration-0 mode set from the problem's
// kernel matrix: one column per kernel basis vector. Tails cover the
// pivot rows D..q-1 (the rows the iteration processes); the identity
// block lives in the bit prefix only — its values are non-negative
// combination coefficients throughout the run and can never cancel, so
// bits suffice there (and the Problem guarantees identity rows are
// irreversible reactions).
func InitialModeSet(p *nullspace.Problem, tol float64) *ModeSet {
	q, d := p.Q(), p.D
	set := NewModeSet(q, p.D, nil)
	tail := make([]float64, q-p.D)
	for j := 0; j < d; j++ {
		for i := p.D; i < q; i++ {
			tail[i-p.D] = p.Kernel[i][j]
		}
		// Normalize: identity entry is 1, so include it in the scale.
		maxAbs := 1.0
		for _, v := range tail {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		scale := 1 / maxAbs
		for i := range tail {
			tail[i] *= scale
		}
		idx := set.AppendMode(nil, tail, nil, tol)
		// Identity block support: basis vector j has 1 at permuted row j.
		setBit(set.BitsWords(idx), j, true)
	}
	return set
}

// Run executes the Nullspace Algorithm (Algorithm 1): Algorithm 2 on a
// group of one, which owns the whole pair range of every row and has
// nobody to exchange candidates with.
func Run(p *nullspace.Problem, opts Options) (*Result, error) {
	return RunNode(p, opts, 0, 1, nil, nil)
}

// RunNode is the row loop of Algorithms 1 and 2, as node rank of a group
// of size runs it; every driver's iteration is this function. Each row,
// the node generates its share of the positive×negative pair range
// (sharded once more over Options.Workers), rank-tests the candidates,
// and rebuilds the next mode set from what exchange returns.
//
// A group of one passes a nil exchange: it generates the whole range
// (Pool.GenerateRange) and its candidates go from generation to the merge
// as the pool's zero-copy views. In a group, the node generates the
// chunks Pool.Deal deals it and exchange is Communicate: it is handed the
// Deal and returns every node's candidates in chunk order (Deal.Gather).
// The result is the node's own: the statistics' generation-side fields
// cover its chunks alone (AddGenStats sums them over a group); merge-side
// fields and the modes are identical on every replica. Trace fires on
// rank 0 only.
//
// gauge, when non-nil, receives the node's resident mode-set payload
// after every row — the row's peak, then under a memory budget what
// stays resident once the store holds the successor — and a final zero
// when the node returns.
func RunNode(p *nullspace.Problem, opts Options, rank, size int, exchange func(mine *Deal) ([]*ModeSet, error), gauge func(rank int, bytes int64)) (*Result, error) {
	if gauge != nil {
		defer gauge(rank, 0)
	}
	last := opts.LastRow
	if last <= 0 || last > p.Q() {
		last = p.Q()
	}
	res := &Result{Problem: p}
	pool := NewPool(p, opts.Workers)
	// The between-rounds store: under a memory budget the surviving set
	// is spilled while a node waits at its next collective instead of
	// staying flat on every replica at once. The deferred Release covers
	// every abort, fault and cancel path, so spill files never outlive
	// the run.
	store := NewStoreManager(opts)
	defer store.Release()
	if err := store.Hold(InitialModeSet(p, zeroTol)); err != nil {
		return nil, err
	}
	for row := p.D; row < last; row++ {
		if opts.Cancel != nil {
			select {
			case <-opts.Cancel:
				return nil, fmt.Errorf("%w at row %d", ErrCanceled, row)
			default:
			}
		}
		set, err := store.Materialize()
		if err != nil {
			return nil, err
		}
		it := BeginRow(p, set, row, opts)
		var cands []*ModeSet
		if exchange == nil {
			cands = pool.GenerateRange(it, 0, it.Pairs(), &it.Stats)
		} else if cands, err = exchange(pool.Deal(it, rank, size, &it.Stats)); err != nil {
			return nil, err
		}
		next, err := pool.AssembleNext(it, cands)
		if err != nil {
			return nil, err
		}
		res.Stats = append(res.Stats, it.Stats)
		if opts.Trace != nil && rank == 0 {
			opts.Trace(it.Stats, next)
		}
		// Hold drops the flat reference when it spills; `set` and `next`
		// die with this iteration, so nothing of the round stays resident
		// across the gap to the next row.
		if err := store.Hold(next); err != nil {
			return nil, err
		}
		if gauge != nil {
			gauge(rank, it.Stats.PeakBytes)
			if store.Active() {
				gauge(rank, store.ResidentBytes())
			}
		}
	}
	final, err := store.Materialize()
	if err != nil {
		return nil, err
	}
	res.Modes = final
	res.Store = store.Stats()
	return res, nil
}

// RowIter holds the state of one iteration (processing one kernel row).
// It is exported for the benchmark's replay of the row loop and for
// tests; RunNode is its one caller in the engine.
type RowIter struct {
	Problem        *nullspace.Problem
	Set            *ModeSet
	Row            int
	Reversible     bool
	Pos, Neg, Zero []int
	Stats          IterStats

	opts    Options
	nextRev []int        // revRows of the next iteration's sets
	tree    *bptree.Tree // reject-only prefilter ahead of the rank test; nil off a pointed cone
	genTree *bptree.Tree // over the Neg columns, indexed by position in Neg; nil on rows too small to repay it
	// Per-row constants of the pair sweep, computed once in BeginRow:
	// the processed-prefix mask (rows 0..Row), the support bounds, and
	// per-column popcount caches over the current set so the sweep can
	// bound |supp(p) ∪ supp(n)| from two table lookups plus an
	// early-exit intersection count instead of a full union sweep.
	prefixMask  []uint64
	maxSupport  int
	prefixBound int
	suppSize    []int32 // popcount(support) per current column
	prefixSize  []int32 // popcount(support ∩ prefixMask) per current column
}

// BeginRow partitions the current columns by their sign in the given
// permuted row.
func BeginRow(p *nullspace.Problem, set *ModeSet, row int, opts Options) *RowIter {
	if row != set.FirstRow() {
		panic(fmt.Sprintf("core: BeginRow(%d) on set with FirstRow %d", row, set.FirstRow()))
	}
	it := &RowIter{
		Problem:    p,
		Set:        set,
		Row:        row,
		Reversible: p.Rev[row],
		opts:       opts,
	}
	tol := zeroTol
	for i := 0; i < set.Len(); i++ {
		v := set.Tail(i)[0]
		switch {
		case v > tol:
			it.Pos = append(it.Pos, i)
		case v < -tol:
			it.Neg = append(it.Neg, i)
		default:
			it.Zero = append(it.Zero, i)
		}
	}
	it.nextRev = set.RevRows()
	if it.Reversible {
		it.nextRev = append(append([]int(nil), set.RevRows()...), row)
	}
	it.Stats = IterStats{
		Row:        row,
		Reaction:   p.Perm[row],
		Reversible: it.Reversible,
		Pos:        len(it.Pos),
		Neg:        len(it.Neg),
		Zero:       len(it.Zero),
	}
	words := set.words
	it.maxSupport = p.M() + 1
	// Tighter pre-filter bound on the already-processed prefix (rows
	// 0..Row): an intermediate extreme ray's tight constraint set must
	// leave a one-dimensional kernel, which bounds the support restricted
	// to the identity block plus processed rows by (#processed + 1). The
	// union estimate ignores (rare, non-generic) cancellations in
	// processed reversible rows — the same genericity assumption every
	// floating point implementation of the candidate filters makes; the
	// exact bound is re-applied after the numeric combination.
	it.prefixBound = row - p.D + 2
	it.prefixMask = make([]uint64, words)
	for r := 0; r <= row; r++ {
		it.prefixMask[r/64] |= 1 << uint(r%64)
	}
	if len(it.Pos) > 0 && len(it.Neg) > 0 {
		it.suppSize = make([]int32, set.Len())
		it.prefixSize = make([]int32, set.Len())
		for i := 0; i < set.Len(); i++ {
			w := set.BitsWords(i)
			var total, pfx int
			for k, v := range w {
				total += popcount(v)
				pfx += popcount(v & it.prefixMask[k])
			}
			it.suppSize[i] = int32(total)
			it.prefixSize[i] = int32(pfx)
		}
		if !opts.DisableHybrid {
			it.buildTrees()
		}
	}
	return it
}

// A row opens the generation tree when it has enough positive columns to
// repay a build over its negatives and enough negatives for subtrees to
// form: below these sizes the linear sweep is as fast and builds nothing.
const (
	genTreeMinPos = 64
	genTreeMinNeg = 64
)

// treePool recycles the per-row trees' storage across rows and runs.
var treePool = sync.Pool{New: func() any { return new(bptree.Tree) }}

// buildTrees constructs the row's bit-pattern trees; assemble hands them
// back to the pool.
func (it *RowIter) buildTrees() {
	set := it.Set
	if len(it.Pos) >= genTreeMinPos && len(it.Neg) >= genTreeMinNeg {
		it.genTree = treePool.Get().(*bptree.Tree)
		it.genTree.Rebuild(set.Q(), len(it.Neg), func(kn int) []uint64 { return set.BitsWords(it.Neg[kn]) })
	}
	if pointed(it.Problem.Rev) {
		// Hybrid fast path: on a pointed cone the superset query is a
		// sound necessary condition for adjacency, so the tree can
		// reject candidates before the (much costlier) rank test
		// without changing any verdict the rank test would reach.
		it.tree = treePool.Get().(*bptree.Tree)
		it.tree.Rebuild(set.Q(), set.Len(), set.BitsWords)
	}
}

// releaseTrees returns the row's trees to the pool. Generation after
// this point would fall back to the linear sweep.
func (it *RowIter) releaseTrees() {
	for _, t := range []*bptree.Tree{it.tree, it.genTree} {
		if t != nil {
			treePool.Put(t)
		}
	}
	it.tree, it.genTree = nil, nil
}

// pointed reports whether the problem's flux cone is pointed: no
// reversible rows remain (every reversible reaction was split or absent).
func pointed(rev []bool) bool {
	for _, r := range rev {
		if r {
			return false
		}
	}
	return true
}

// Pairs returns the number of candidate combinations this row generates.
func (it *RowIter) Pairs() int64 {
	return int64(len(it.Pos)) * int64(len(it.Neg))
}

// NewCandidateSet returns an empty mode set with the layout of the next
// iteration, for candidates produced by GenerateIntoScratch.
func (it *RowIter) NewCandidateSet() *ModeSet {
	return NewModeSet(it.Set.Q(), it.Row+1, it.nextRev)
}

// GenerateIntoScratch produces the candidate modes for pair indices
// [from, to) — pair k combines Pos[k/len(Neg)] with Neg[k%len(Neg)] —
// applying the support-size pre-test and the rank test, and appends
// survivors to cands. Statistics accumulate into st. Distinct slices of
// the pair space may be generated concurrently into distinct (cands, ws,
// st, sc) tuples; the RowIter itself is read-only here. sc holds the
// per-call masks and combination buffers so repeated rows and chunks stop
// re-allocating them; it may be nil (a fresh scratch is used).
//
// The range is walked one positive column at a time. A whole column of a
// row that carries a generation tree asks the tree which negative columns
// can pass the support pre-test at all; the partial first and last
// column of the range, and every column of a row without a tree, sweep
// the negatives linearly. Both run the same pre-test on what they visit
// and hand the survivors, in ascending negative order, to the same
// combine-and-test body, so the candidates and every counter but Visited
// are those of the plain sweep.
func (it *RowIter) GenerateIntoScratch(cands *ModeSet, ws *linalg.Workspace, from, to int64, st *IterStats, sc *GenScratch) {
	to = min(to, it.Pairs())
	if from >= to {
		return
	}
	if sc == nil {
		sc = &GenScratch{}
	}
	t0 := time.Now()
	g := newGenCall(it, cands, ws, st, sc)

	nNeg := int64(len(it.Neg))
	for k := from; k < to; {
		kp, kn := int(k/nNeg), int(k%nNeg)
		end := k - int64(kn) + nNeg
		if end > to {
			end = to
		}
		if it.genTree != nil && end-k == nNeg {
			g.treeColumn(kp)
		} else {
			g.sweepColumn(kp, kn, kn+int(end-k))
		}
		k = end
	}
	// Extrapolation happens here, per call — i.e. per chunk when the pair
	// space is sharded — with the call-local sampled/timed counters.
	// Folding chunks and workers together afterwards just sums their
	// TestSeconds; scaling a shared counter would double-count. Rank
	// tests and hybrid tree queries are scaled by their own sampling
	// ratios (their per-op costs differ by orders of magnitude) before
	// the shared wall-clock clamp.
	scaled := scaleSampled(g.testSeconds, g.sampledTests, g.timedTests) +
		scaleSampled(g.treeSeconds, g.sampledTreeQueries, g.treeQueries)
	testSec, genSec := extrapolateSampled(time.Since(t0).Seconds(), scaled)
	st.Pairs += to - from
	st.TestSeconds += testSec
	st.GenSeconds += genSec
}

// genCall is the state of one GenerateIntoScratch call: its targets, the
// scratch buffers resliced for the row, and the sampled-timer tallies.
type genCall struct {
	it    *RowIter
	cands *ModeSet
	ws    *linalg.Workspace
	st    *IterStats
	sc    *GenScratch

	orWords []uint64
	newTail []float64
	newRev  []float64

	testSeconds, treeSeconds        float64
	sampledTests, timedTests        int64
	sampledTreeQueries, treeQueries int64
}

func newGenCall(it *RowIter, cands *ModeSet, ws *linalg.Workspace, st *IterStats, sc *GenScratch) genCall {
	g := genCall{it: it, cands: cands, ws: ws, st: st, sc: sc}
	g.newTail = growFloat64(&sc.newTail, it.Set.TailLen()-1)
	g.newRev = growFloat64(&sc.newRev, len(it.nextRev))
	g.orWords = growUint64(&sc.orWords, it.Set.words)
	if cap(sc.rankIdx) < it.Set.Q() {
		sc.rankIdx = make([]int, 0, it.Set.Q())
	}
	return g
}

// unionFits is the cheap support pre-test on the parents' union (the
// union includes the current row, zero in the candidate), for positive
// column pi — support bp — against negative column ni, via
// |supp(p) ∪ supp(n)| = |supp(p)| + |supp(n)| − |∩|: the cached
// per-column popcounts turn the union bound into two lookups plus an
// intersection count that stops as soon as enough shared bits are seen.
// It fails iff a full-union sweep would — the counts are identities, not
// approximations. It is the one pair predicate of generation: the linear
// sweep and the tree's leaves both decide by it.
func (it *RowIter) unionFits(bp []uint64, pi, ni int) bool {
	needTotal := int(it.suppSize[pi]) + int(it.suppSize[ni]) - 1 - it.maxSupport
	needPrefix := int(it.prefixSize[pi]) + int(it.prefixSize[ni]) - 1 - it.prefixBound
	if needTotal <= 0 && needPrefix <= 0 {
		return true
	}
	words := it.Set.words
	bn := it.Set.bits[ni*words : ni*words+words]
	inter, interPfx := 0, 0
	for w, m := range it.prefixMask {
		u := bp[w] & bn[w]
		inter += popcount(u)
		interPfx += popcount(u & m)
		if inter >= needTotal && interPfx >= needPrefix {
			return true
		}
	}
	return false
}

// sweepColumn probes positive column kp against negatives [knLo, knHi)
// one by one.
func (g *genCall) sweepColumn(kp, knLo, knHi int) {
	it := g.it
	pi := it.Pos[kp]
	bp := it.Set.BitsWords(pi)
	g.st.Visited += int64(knHi - knLo)
	for _, ni := range it.Neg[knLo:knHi] {
		if !it.unionFits(bp, pi, ni) {
			g.st.Prefiltered++
			continue
		}
		g.combine(pi, ni)
	}
}

// treeColumn generates the whole positive column kp through the row's
// generation tree. Subtrees the tree rules out are pre-test rejections by
// their count alone; what is left is visited like a sweep would, and the
// survivors are put back into ascending negative order before they are
// combined, which keeps the candidate sequence that of the sweep.
func (g *genCall) treeColumn(kp int) {
	it := g.it
	pi := it.Pos[kp]
	bp := it.Set.BitsWords(pi)
	visit, ruledOut := it.genTree.AppendUnionWithin(g.sc.visit[:0], bp, it.prefixMask, it.maxSupport+1, it.prefixBound+1)
	g.sc.visit = visit
	g.st.Visited += int64(len(visit))
	keep := visit[:0]
	for _, kn := range visit {
		if it.unionFits(bp, pi, it.Neg[kn]) {
			keep = append(keep, kn)
		}
	}
	g.st.Prefiltered += int64(ruledOut + len(visit) - len(keep))
	slices.Sort(keep)
	for _, kn := range keep {
		g.combine(pi, it.Neg[kn])
	}
}

// combine builds the candidate of one pair that passed the pre-test and
// rank-tests it, leaving it in cands iff it is accepted.
func (g *genCall) combine(pi, ni int) {
	cw := g.candidate(pi, ni)
	if cw == nil {
		return
	}
	// Algebraic rank test: the support submatrix of N must have nullity
	// exactly 1. It is the only arbiter (the tree in candidate rejects,
	// never accepts). Timing is sampled (1 in 64, the call's first test
	// included) to keep time.Now() off the hot path.
	g.st.Tested++
	sample := g.timedTests&63 == 0
	g.timedTests++
	var tTest time.Time
	if sample {
		tTest = time.Now()
	}
	ok, eliminated := nullityIsOne(g.it.Problem, g.ws, cw, zeroTol, g.sc.rankIdx)
	if sample {
		g.testSeconds += time.Since(tTest).Seconds()
		g.sampledTests++
	}
	if eliminated {
		g.st.Eliminated++
	}
	if !ok {
		g.cands.truncateLast()
		return
	}
	g.st.Accepted++
}

// candidate appends the candidate of one pair to cands — numeric
// combination, clamp, exact support bounds, the hybrid reject query — and
// returns its support words for the rank test, or nil once it is rejected
// and removed again.
func (g *genCall) candidate(pi, ni int) []uint64 {
	it, cands, st := g.it, g.cands, g.st
	set := it.Set
	words := set.words
	tol := zeroTol
	bp, bn := set.BitsWords(pi), set.BitsWords(ni)
	orWords := g.orWords
	for w := 0; w < words; w++ {
		orWords[w] = bp[w] | bn[w]
	}
	tp, tn := set.Tail(pi), set.Tail(ni)
	beta := tp[0]
	alpha := -tn[0] // positive
	// Values below clamp are cancellation residue, not signal: mode
	// values are normalized to ≤1 in magnitude, so a genuine entry of the
	// combination has magnitude on the order of α or β. Clamping BEFORE
	// normalization matters: if every remaining coordinate cancels,
	// normalizing by the largest residue would amplify noise into
	// fabricated support.
	clamp := tol * (alpha + beta)
	maxAbs := 0.0
	newTail, newRev := g.newTail, g.newRev
	for j := 1; j < len(tp); j++ {
		v := alpha*tp[j] + beta*tn[j]
		if math.Abs(v) < clamp {
			v = 0
		}
		newTail[j-1] = v
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	rp, rn := set.RevVals(pi), set.RevVals(ni)
	for j := range rp {
		v := alpha*rp[j] + beta*rn[j]
		if math.Abs(v) < clamp {
			v = 0
		}
		newRev[j] = v
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if it.Reversible {
		newRev[len(newRev)-1] = 0
	}
	if maxAbs > 0 {
		scale := 1 / maxAbs
		for j := range newTail {
			newTail[j] *= scale
		}
		for j := range newRev {
			newRev[j] *= scale
		}
	}
	orWords[it.Row/64] &^= 1 << uint(it.Row%64)
	idx := cands.AppendMode(orWords, newTail, newRev, tol)
	// Exact support counts (cancellations included).
	s := 0
	sPrefix := 0
	cw := cands.BitsWords(idx)
	for w := 0; w < words; w++ {
		s += popcount(cw[w])
		sPrefix += popcount(cw[w] & it.prefixMask[w])
	}
	if s == 0 || s > it.maxSupport || sPrefix > it.prefixBound {
		cands.truncateLast()
		st.Prefiltered++
		return nil
	}
	if it.tree != nil {
		// Hybrid fast path: bit-pattern-tree superset query on the
		// candidate's EXACT support (not the parents' union — exact
		// cancellations in unprocessed rows can shrink the support below
		// the union, and a hit against the union alone would reject pairs
		// the rank test accepts). A hit is conclusive: every current
		// column lies in ker N, so a column whose support fits strictly
		// inside supp(c) is a second kernel dimension of N[:,supp(c)] —
		// the rank test would reject — and an exact-equal support
		// re-derives a kept ray, which the assemble-stage survivor dedup
		// drops. Reject-only, so the rank test stays the final arbiter;
		// timing is sampled (1 in 64) to keep time.Now() off the hot path.
		sample := g.treeQueries&63 == 0
		g.treeQueries++
		var tTest time.Time
		if sample {
			tTest = time.Now()
		}
		hit := it.tree.HasSubsetOfExcluding(cw, pi, ni)
		if sample {
			g.treeSeconds += time.Since(tTest).Seconds()
			g.sampledTreeQueries++
		}
		if hit {
			cands.truncateLast()
			st.TreeRejects++
			return nil
		}
	}
	return cw
}

// scaleSampled extrapolates sampled seconds up to the full operation
// count; with no samples taken it returns the input unchanged.
func scaleSampled(seconds float64, sampled, total int64) float64 {
	if sampled > 0 {
		seconds *= float64(total) / float64(sampled)
	}
	return seconds
}

// extrapolateSampled splits the measured wall time of one generation
// call into (test, gen) parts, given the test seconds extrapolated from
// the samples. The extrapolation can exceed the measured wall time on
// tiny workloads; the split is clamped so both parts stay non-negative.
// Exposed as a pure function so the sharded-timer accounting is
// unit-testable.
func extrapolateSampled(wall, sampledSeconds float64) (testSec, genSec float64) {
	if sampledSeconds > wall {
		sampledSeconds = wall
	}
	if sampledSeconds < 0 {
		sampledSeconds = 0
	}
	return sampledSeconds, wall - sampledSeconds
}

// candRef addresses one candidate inside a slice of candidate sets.
type candRef struct{ set, idx int32 }

// compareRefs orders candidates by support (most significant word first)
// with generation order — set, then index — as the tie-break. The order
// is total, so the serial sort and the worker pool's k-way merge agree on
// it exactly; equal-support duplicates always resolve to the candidate
// generated first.
func compareRefs(candSets []*ModeSet, a, b candRef) int {
	wa := candSets[a.set].BitsWords(int(a.idx))
	wb := candSets[b.set].BitsWords(int(b.idx))
	for k := len(wa) - 1; k >= 0; k-- {
		switch {
		case wa[k] < wb[k]:
			return -1
		case wa[k] > wb[k]:
			return 1
		}
	}
	switch {
	case a.set != b.set:
		return int(a.set) - int(b.set)
	default:
		return int(a.idx) - int(b.idx)
	}
}

// sameSupportRef reports whether two refs carry identical supports.
func sameSupportRef(candSets []*ModeSet, a, b candRef) bool {
	return equalWords(candSets[a.set].BitsWords(int(a.idx)), candSets[b.set].BitsWords(int(b.idx)))
}

// AssembleNext merges the surviving old columns with the deduplicated
// candidates from one or more candidate sets (one per compute node in the
// distributed drivers) into the next iteration's mode set.
func (it *RowIter) AssembleNext(candSets ...*ModeSet) (*ModeSet, error) {
	t0 := time.Now()
	// Global candidate ordering by support (the paper's
	// Sort&RemoveDuplicates; across sets this is the merge half of
	// Communicate&Merge).
	var refs []candRef
	for si, cs := range candSets {
		for i := 0; i < cs.Len(); i++ {
			refs = append(refs, candRef{int32(si), int32(i)})
		}
	}
	var tmp []candRef
	radixSortRefs(candSets, refs, &tmp)
	return it.assemble(candSets, refs, t0)
}

// assemble builds the next iteration's mode set from the survivors and a
// support-sorted candidate order (deduplicating as it copies).
func (it *RowIter) assemble(candSets []*ModeSet, refs []candRef, t0 time.Time) (*ModeSet, error) {
	it.releaseTrees()
	next := NewModeSet(it.Set.Q(), it.Row+1, it.nextRev)
	survivors := len(it.Zero) + len(it.Pos)
	if it.Reversible {
		survivors += len(it.Neg)
	}
	next.Grow(survivors + len(refs))
	// Survivor supports, hashed, so candidates that re-derive a kept ray
	// can be dropped: a rank-passed candidate's support submatrix has a
	// one-dimensional kernel, so any kept column with the same support
	// is necessarily the same ray.
	survivorIdx := make(map[uint64][]int)
	addSurvivor := func(src int) {
		j := next.appendShifted(it.Set, src, it.Reversible)
		survivorIdx[hashWords(next.BitsWords(j))] = append(survivorIdx[hashWords(next.BitsWords(j))], j)
	}
	for _, i := range it.Zero {
		addSurvivor(i)
	}
	for _, i := range it.Pos {
		addSurvivor(i)
	}
	if it.Reversible {
		for _, i := range it.Neg {
			addSurvivor(i)
		}
	}

	for i, r := range refs {
		if i > 0 && sameSupportRef(candSets, refs[i-1], r) {
			it.Stats.Duplicates++
			continue
		}
		words := candSets[r.set].BitsWords(int(r.idx))
		dup := false
		for _, j := range survivorIdx[hashWords(words)] {
			if equalWords(words, next.BitsWords(j)) {
				dup = true
				break
			}
		}
		if dup {
			it.Stats.Duplicates++
			continue
		}
		next.CopyModeFrom(candSets[r.set], int(r.idx))
	}
	it.Stats.ModesOut = next.Len()
	it.Stats.MergeSeconds += time.Since(t0).Seconds()
	it.Stats.PeakBytes = next.MemoryBytes() + it.Set.MemoryBytes()
	if it.opts.MaxModes > 0 && next.Len() > it.opts.MaxModes {
		return nil, fmt.Errorf("%w: row %d produced %d modes, exceeding the %d-mode budget",
			ErrBudget, it.Row, next.Len(), it.opts.MaxModes)
	}
	return next, nil
}

// IsElementaryWS runs the exact-support algebraic rank test on mode i of
// the set: true iff the stoichiometric submatrix over the mode's support
// has nullity exactly one (tol ≤ 0 is linalg.DefaultTol). The caller owns
// the workspace and the index scratch (scratch may be nil; capacity Q
// never reallocates), so batch re-validation — the divide-and-conquer
// driver re-checks every extracted column at its early stop point —
// reuses one elimination buffer across calls instead of allocating per
// mode. The workspace must not be shared between concurrent calls.
func IsElementaryWS(p *nullspace.Problem, set *ModeSet, i int, tol float64, ws *linalg.Workspace, scratch []int) bool {
	ok, _ := nullityIsOne(p, ws, set.BitsWords(i), tol, scratch)
	return ok
}

// nullityIsOne is the algebraic rank test: does N restricted to the
// support S have nullity exactly one? The kernel is K = [I_D ; K₂], so a
// kernel vector supported inside S is K·y with y zero outside J = S∩[0,D)
// and K₂·y zero on T̄, the pivot rows [D,q) outside S:
//
//	nullity(N[:,S]) = |J| − rank K₂[T̄, J].
//
// Only that block is eliminated, with an early exit at the second rank
// deficiency. A row of it whose non-zero mask misses J is all zero and is
// never gathered; when fewer than |J|−1 rows are left the rank cannot
// reach |J|−1 and the candidate is rejected by that count alone, exactly.
// eliminated reports whether an elimination ran.
func nullityIsOne(p *nullspace.Problem, ws *linalg.Workspace, support []uint64, tol float64, scratch []int) (ok, eliminated bool) {
	q, d := p.Q(), p.D
	cols := scratch[:0]
	for w := 0; w*64 < d; w++ {
		for v := rowsIn(support[w], w, 0, d); v != 0; v &= v - 1 {
			cols = append(cols, w*64+trailingZeros(v))
		}
	}
	nj := len(cols)
	if nj == 0 {
		return false, false
	}
	mw := (d + 63) / 64
	live := cols[nj:]
	for w := d / 64; w*64 < q; w++ {
		for v := rowsIn(^support[w], w, d, q); v != 0; v &= v - 1 {
			r := w*64 + trailingZeros(v)
			// A mask has no bit at or above D, so against the raw support
			// words it meets J alone.
			var hit uint64
			for k, mk := range p.RowMask[r*mw : r*mw+mw] {
				hit |= mk & support[k]
			}
			if hit != 0 {
				live = append(live, r)
			}
		}
	}
	if len(live) < nj-1 {
		return false, false
	}
	if len(live) == 0 {
		return true, false // one free column and nothing to constrain it
	}
	buf := ws.Buffer(len(live), nj)
	maxAbs, o := 0.0, 0
	for _, r := range live {
		row := p.KernelRows[r*d : r*d+d]
		for _, j := range cols {
			v := row[j]
			buf[o] = v
			o++
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
	}
	exceeds, def := ws.RankDeficiencyExceeds(buf, len(live), nj, maxAbs, tol, 1)
	return !exceeds && def == 1, true
}

// rowsIn clears from v, word w of a bit row, the bits of rows outside
// [lo, hi).
func rowsIn(v uint64, w, lo, hi int) uint64 {
	if lo > w*64 {
		v &^= 1<<uint(lo-w*64) - 1
	}
	if hi < w*64+64 {
		v &= 1<<uint(hi-w*64) - 1
	}
	return v
}

func hashWords(words []uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, w := range words {
		h = (h ^ w) * prime
	}
	return h
}

func equalWords(a, b []uint64) bool {
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}
