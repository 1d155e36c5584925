package core

import (
	"errors"
	"fmt"
	"math"
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
	TreeRejects    int64 // never set: the rank test is the one verdict; bench/ still reads it as core.tree_rejects, pinned at 0
	Tested         int64 // rank tests run
	Eliminated     int64 // rank tests decided by an elimination, run or its verdict read from the worker's verdict table; the rest were decided by the pattern (live-row count or peel)
	FullPasses     int64 // pre-test survivors whose support the shared rows left undecided, so the full value pass built it
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
	// workers is RunNode's pool size: the CPUs CanonicalSupports may
	// shard its fold over. Zero on a Result built elsewhere (one shard).
	workers int
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
			tail[i-p.D] = p.KernelRows[i*d+j]
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
		set.BitsWords(idx)[j/64] |= 1 << uint(j%64)
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
// gauge, when non-nil, receives each change of the node's resident
// mode-set payload as a signed delta: after every row the row's peak,
// then under a memory budget what stays resident once the store holds
// the successor, and on every return the release of whatever is still
// held — so the deltas of one call always sum to zero.
func RunNode(p *nullspace.Problem, opts Options, rank, size int, exchange func(mine *Deal) ([]*ModeSet, error), gauge func(delta int64)) (*Result, error) {
	var held int64
	resident := func(bytes int64) {
		if gauge != nil && bytes != held {
			gauge(bytes - held)
			held = bytes
		}
	}
	defer resident(0)
	last := opts.LastRow
	if last <= 0 || last > p.Q() {
		last = p.Q()
	}
	pool := NewPool(p, opts.Workers)
	res := &Result{Problem: p, workers: pool.Workers()}
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
		resident(it.Stats.PeakBytes)
		if store.Active() {
			resident(store.ResidentBytes())
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
	genTree *bptree.Tree // over the Neg columns, indexed by position in Neg; nil on rows without pairs
	// Per-row constants of generation, computed once in BeginRow:
	// the processed-prefix mask (rows 0..Row), the support bounds, and
	// per-column popcount caches over the current set so the pre-test can
	// bound |supp(p) ∪ supp(n)| from two table lookups plus an
	// early-exit intersection count instead of a full union sweep.
	prefixMask  []uint64
	maxSupport  int
	prefixBound int
	suppSize    []int32  // popcount(support) per current column
	prefixSize  []int32  // popcount(support ∩ prefixMask) per current column
	negLive     []uint64 // liveMask per negative position, set.words words each
	// The support-first pass (genCall.sharedSupport): the rows a
	// candidate's values are computed on — the tail rows past Row and the
	// processed reversible rows — each row's value offset within a mode,
	// and the value range per negative position (pooled storage).
	evalMask []uint64
	evalOff  []int32
	negRange []valueRange
	rangeBuf *[]valueRange
}

// valueRange is what the support-first pass knows of a column's values on
// the rows of RowIter.evalMask: the smallest magnitude where its bit is
// set, the largest anywhere, and whether some value is non-zero where its
// bit is clear.
type valueRange struct {
	lo, hi float64
	dirty  bool
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
		it.negLive = make([]uint64, len(it.Neg)*words)
		kn := 0
		for i := 0; i < set.Len(); i++ {
			w := set.BitsWords(i)
			var total, pfx int
			for k, v := range w {
				total += popcount(v)
				pfx += popcount(v & it.prefixMask[k])
			}
			it.suppSize[i] = int32(total)
			it.prefixSize[i] = int32(pfx)
			if kn < len(it.Neg) && it.Neg[kn] == i {
				liveMask(p, it.negLive[kn*words:(kn+1)*words], w)
				kn++
			}
		}
		it.rangeColumns()
		it.buildGenTree()
	}
	return it
}

// rangeColumns readies the support-first pass: the evaluation mask and
// offsets, and the value range of every negative column.
func (it *RowIter) rangeColumns() {
	set := it.Set
	it.evalMask = make([]uint64, set.words)
	it.evalOff = make([]int32, set.q)
	for r := it.Row + 1; r < set.q; r++ {
		it.evalMask[r/64] |= 1 << uint(r%64)
		it.evalOff[r] = int32(r - it.Row)
	}
	for j, r := range set.revRows {
		it.evalMask[r/64] |= 1 << uint(r%64)
		it.evalOff[r] = int32(set.TailLen() + j)
	}
	it.rangeBuf = rangePool.Get().(*[]valueRange)
	if cap(*it.rangeBuf) < len(it.Neg) {
		*it.rangeBuf = make([]valueRange, len(it.Neg))
	}
	it.negRange = (*it.rangeBuf)[:len(it.Neg)]
	for kn, i := range it.Neg {
		it.negRange[kn] = it.valueRange(i)
	}
}

// valueRange returns column i's value range on the rows of evalMask.
func (it *RowIter) valueRange(i int) valueRange {
	set := it.Set
	stride := set.stride()
	vals, w := set.vals[i*stride:(i+1)*stride], set.BitsWords(i)
	vr := valueRange{lo: math.Inf(1)}
	for k, m := range it.evalMask {
		for ; m != 0; m &= m - 1 {
			b := m & -m
			a := abs(vals[it.evalOff[k*64+trailingZeros(b)]])
			vr.hi = max(vr.hi, a)
			if w[k]&b != 0 {
				vr.lo = min(vr.lo, a)
			} else if a != 0 {
				vr.dirty = true
			}
		}
	}
	return vr
}

// treePool recycles the generation tree's storage across rows and runs,
// rangePool the negative columns' value ranges'.
var (
	treePool  = sync.Pool{New: func() any { return new(bptree.Tree) }}
	rangePool = sync.Pool{New: func() any { return new([]valueRange) }}
)

// buildGenTree opens the row's generation tree over its negative columns;
// assemble hands it back to the pool.
func (it *RowIter) buildGenTree() {
	set := it.Set
	it.genTree = treePool.Get().(*bptree.Tree)
	it.genTree.Rebuild(set.Q(), len(it.Neg), func(kn int) []uint64 { return set.BitsWords(it.Neg[kn]) })
}

// release returns the row's generation tree and negative value ranges to
// their pools; the row generates nothing after this point.
func (it *RowIter) release() {
	if it.genTree != nil {
		treePool.Put(it.genTree)
		it.genTree = nil
	}
	if it.rangeBuf != nil {
		rangePool.Put(it.rangeBuf)
		it.rangeBuf, it.negRange = nil, nil
	}
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
// The range is walked one positive column at a time, whole or partial:
// the row's generation tree says which negative columns can pass the
// support pre-test at all, the pre-test runs on those inside the range,
// and the survivors, in ascending negative order, are combined and
// rank-tested. The tree rules out only pairs the pre-test rejects, so the
// candidates and every counter but Visited are those of a sweep over
// every pair of the range.
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
		end := min(k-int64(kn)+nNeg, to)
		g.treeColumn(kp, kn, kn+int(end-k))
		k = end
	}
	// Extrapolation happens here, per call — i.e. per chunk when the pair
	// space is sharded — with the call-local sampled/timed counters.
	// Folding chunks and workers together afterwards just sums their
	// TestSeconds; scaling a shared counter would double-count.
	scaled := scaleSampled(g.testSeconds, g.sampledTests, g.timedTests)
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

	pi      int      // the positive column being combined
	bp      []uint64 // its support words
	posLive []uint64 // its liveMask
	union   []uint64 // liveRows' result
	keep    []uint64 // treeColumn's bitmap over the negative positions
	cand    []uint64 // the candidate's support: the parents' union, then its own
	newTail []float64
	newRev  []float64

	posRange valueRange // the positive column's value range on evalMask

	testSeconds              float64
	sampledTests, timedTests int64
}

func newGenCall(it *RowIter, cands *ModeSet, ws *linalg.Workspace, st *IterStats, sc *GenScratch) genCall {
	g := genCall{it: it, cands: cands, ws: ws, st: st, sc: sc}
	words := it.Set.words
	g.newTail = growFloat64(&sc.newTail, it.Set.TailLen()-1)
	g.newRev = growFloat64(&sc.newRev, len(it.nextRev))
	g.cand = growUint64(&sc.cand, words)
	g.posLive = growUint64(&sc.posLive, words)
	g.union = growUint64(&sc.union, words)
	// Every bit treeColumn sets it clears again as it reads it back, so
	// the bitmap is all zero between calls and on reuse.
	g.keep = growUint64(&sc.keep, (len(it.Neg)+63)/64)
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
// approximations. It is the one pair predicate of generation: the tree's
// leaves are decided by it.
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

// treeColumn generates positive column kp against negatives [knLo, knHi)
// through the row's generation tree. Of the leaves the tree leaves to
// probe, those inside the range are visited; every other pair of the
// range is a pre-test rejection by its count alone. The survivors are
// marked in a bitmap over the negative positions and read back from it in
// ascending order, which keeps the candidate sequence that of a sweep.
func (g *genCall) treeColumn(kp, knLo, knHi int) {
	it := g.it
	g.column(it.Pos[kp])
	visit := it.genTree.AppendUnionWithin(g.sc.visit[:0], g.bp, it.prefixMask, it.maxSupport+1, it.prefixBound+1)
	g.sc.visit = visit
	keep, kept := g.keep, 0
	for _, kn := range visit {
		if int(kn) < knLo || int(kn) >= knHi {
			continue
		}
		g.st.Visited++
		if it.unionFits(g.bp, g.pi, it.Neg[kn]) {
			keep[kn/64] |= 1 << uint(kn%64)
			kept++
		}
	}
	g.st.Prefiltered += int64(knHi - knLo - kept)
	for w := knLo / 64; kept > 0; w++ {
		v := keep[w]
		keep[w] = 0
		for ; v != 0; v &= v - 1 {
			g.combine(w*64 + trailingZeros(v))
			kept--
		}
	}
}

// column readies the pass for positive column pi: its support words, its
// liveMask, L_a, and its value range, taken once for all its pairs.
func (g *genCall) column(pi int) {
	g.pi, g.bp = pi, g.it.Set.BitsWords(pi)
	liveMask(g.it.Problem, g.posLive, g.bp)
	g.posRange = g.it.valueRange(pi)
}

// combine takes the pair of the current positive column and negative
// position kn, which passed the pre-test, through the rest of the pass:
// its support, the exact support bounds, the rank test, and only for an
// accepted candidate its values and the append to cands. A rejected pair
// leaves nothing behind.
func (g *genCall) combine(kn int) {
	cw := g.support(kn)
	if cw == nil {
		return
	}
	// Algebraic rank test: the support submatrix of N must have nullity
	// exactly 1, and the only verdict behind the support bounds. Timing is
	// sampled (1 in 64, the call's first test included) to keep
	// time.Now() off the hot path; the sample covers the whole verdict,
	// the live-row mask included.
	g.st.Tested++
	sample := g.timedTests&63 == 0
	g.timedTests++
	var tTest time.Time
	if sample {
		tTest = time.Now()
	}
	ok, eliminated := nullityIsOne(g.it.Problem, g.ws, cw, g.liveRows(kn), zeroTol, g.sc.rankIdx, &g.sc.verdicts)
	if sample {
		g.testSeconds += time.Since(tTest).Seconds()
		g.sampledTests++
	}
	if eliminated {
		g.st.Eliminated++
	}
	if !ok {
		return
	}
	g.st.Accepted++
	g.valuePass(g.pi, g.it.Neg[kn])
	g.cands.AppendMode(g.cand, g.newTail, g.newRev, zeroTol)
}

// liveRows returns the rows of T̄ the candidate of the current positive
// column and negative position kn reaches, before its own support is
// taken out: L_a | L_b. Identity rows never cancel, so the candidate's J
// is exactly J_a ∪ J_b and its liveMask is the union of its parents'
// (DESIGN §7).
func (g *genCall) liveRows(kn int) []uint64 {
	qw := len(g.union)
	lb := g.it.negLive[kn*qw : kn*qw+qw]
	for k, v := range g.posLive {
		g.union[k] = v | lb[k]
	}
	return g.union
}

// support builds the support words of the candidate of the current
// positive column and negative position kn in the call's scratch — from
// the rows its parents share when that decides them, by the full value
// pass otherwise — and returns them for the rank test, or nil once the
// exact support bounds reject them.
func (g *genCall) support(kn int) []uint64 {
	if !g.sharedSupport(kn) {
		g.valuePass(g.pi, g.it.Neg[kn])
		g.st.FullPasses++
	}
	if !g.it.supportFits(g.cand) {
		g.st.Prefiltered++
		return nil
	}
	return g.cand
}

// supportFits applies the exact support bounds to a candidate's support
// words, cancellations included.
func (it *RowIter) supportFits(cw []uint64) bool {
	s, sPrefix := 0, 0
	for w, v := range cw {
		s += popcount(v)
		sPrefix += popcount(v & it.prefixMask[w])
	}
	return s > 0 && s <= it.maxSupport && sPrefix <= it.prefixBound
}

// combination is the one float expression of a candidate's value on a
// row, from its parents' values a and b there.
func combination(alpha, a, beta, b float64) float64 { return alpha*a + beta*b }

// sharedSupport writes to the call's scratch words the support the full
// value pass would build for the pair of the current positive column and
// negative position kn, and reports true, when the rows of
// evalMask both parents share and the parents' value ranges decide every
// bit; it reports false, having decided nothing, otherwise. Outside
// evalMask the bits are the parents' union, Row cleared, as in the full
// pass. On evalMask the full pass sets bit r iff the combination v_r
// survives the clamp, |v_r| ≥ clamp = tol·(α+β), and its normalised value
// does too, |fl(v_r·fl(1/m))| > tol, m the largest clamped |v_j|.
//
// The keep bound. Write u = 2⁻⁵³, A and B for the parents' largest |a_j|
// and |b_j| on evalMask, and h = fl(fl(fl(α·A)+fl(β·B))·c), c =
// fl(tol·(1+2⁻⁴⁰)). Each |v_j| ≤ (α·A+β·B)(1+u)², so m ≤ (α·A+β·B)(1+u)²,
// while h ≥ (α·A+β·B)·tol·(1+2⁻⁴⁰)(1−u)⁴. A value with |v_r| ≥ clamp and
// |v_r| > h makes m > 0 and |fl(v_r·fl(1/m))| ≥ (|v_r|/m)(1−u)² >
// tol·(1+2⁻⁴⁰)(1−u)⁶/(1+u)² > tol: its bit is set. So on a shared row
// the bit is cleared below the clamp, kept above h, and the band between
// — where the normalisation alone decides — falls back.
//
// Rows one parent alone holds. A parent that is not dirty is exactly zero
// wherever its bit is clear, so there v_r = fl(α·a_r + β·0) = fl(α·a_r),
// and rounding is monotone: |v_r| ≥ fl(α·lo_a), lo_a the parent's
// smallest |a_j| where its bit is set. When fl(α·lo_a) clears both the
// clamp and h, every such row keeps its bit; otherwise the pair falls
// back. Rows neither parent holds are 0 + 0 and stay clear. A dirty
// parent — a value non-zero where its bit is clear — always falls back.
func (g *genCall) sharedSupport(kn int) bool {
	it := g.it
	pi, ni := g.pi, it.Neg[kn]
	ra, rb := &g.posRange, &it.negRange[kn]
	if ra.dirty || rb.dirty {
		return false
	}
	set := it.Set
	stride := set.stride()
	va, vb := set.vals[pi*stride:(pi+1)*stride], set.vals[ni*stride:(ni+1)*stride]
	beta, alpha := va[0], -vb[0]
	clamp := zeroTol * (alpha + beta)
	keep := zeroTol * (1 + 0x1p-40) * (alpha*ra.hi + beta*rb.hi) // h
	loA, loB := alpha*ra.lo, beta*rb.lo
	aAlone := loA >= clamp && loA > keep // rows a alone holds keep their bits
	bAlone := loB >= clamp && loB > keep
	bp, bn := set.BitsWords(pi), set.BitsWords(ni)
	cw := g.cand
	for w, m := range it.evalMask {
		if !aAlone && bp[w]&^bn[w]&m != 0 || !bAlone && bn[w]&^bp[w]&m != 0 {
			return false
		}
		c := bp[w] | bn[w]
		for s := bp[w] & bn[w] & m; s != 0; s &= s - 1 {
			b := s & -s
			o := it.evalOff[w*64+trailingZeros(b)]
			switch v := abs(combination(alpha, va[o], beta, vb[o])); {
			case v < clamp:
				c &^= b
			case v <= keep:
				return false
			}
		}
		cw[w] = c
	}
	cw[it.Row/64] &^= 1 << uint(it.Row%64)
	return true
}

// valuePass is the full value pass over one pair: the numeric
// combination, the clamp and the normalisation into the call's newTail and
// newRev, and the support words ModeSet.supportBits builds from them into
// its scratch words. It runs for a survivor whose support sharedSupport
// left undecided, and for every accepted candidate, whose values are
// stored.
func (g *genCall) valuePass(pi, ni int) {
	it := g.it
	set := it.Set
	tol := zeroTol
	bp, bn := set.BitsWords(pi), set.BitsWords(ni)
	cw := g.cand
	for w := range cw {
		cw[w] = bp[w] | bn[w]
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
		v := combination(alpha, tp[j], beta, tn[j])
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
		v := combination(alpha, rp[j], beta, rn[j])
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
	cw[it.Row/64] &^= 1 << uint(it.Row%64)
	g.cands.supportBits(cw, cw, newTail, newRev, tol)
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
	it.release()
	next := NewModeSet(it.Set.Q(), it.Row+1, it.nextRev)
	survivors := len(it.Zero) + len(it.Pos)
	if it.Reversible {
		survivors += len(it.Neg)
	}
	next.Grow(survivors + len(refs))
	// Zero survivors' supports, hashed, so candidates that re-derive a
	// kept ray can be dropped: a rank-passed candidate's support
	// submatrix has a one-dimensional kernel, so any kept column with the
	// same support is necessarily the same ray. Only a zero survivor can
	// be one: a candidate's bit Row is clear, and a positive or negative
	// survivor's is set — BeginRow classified it on the same stored value
	// and tolerance that set that bit.
	survivorIdx := make(map[uint64][]int, len(it.Zero))
	for _, i := range it.Zero {
		j := next.appendShifted(it.Set, i, it.Reversible)
		h := hashWords(next.BitsWords(j))
		survivorIdx[h] = append(survivorIdx[h], j)
	}
	for _, i := range it.Pos {
		next.appendShifted(it.Set, i, it.Reversible)
	}
	if it.Reversible {
		for _, i := range it.Neg {
			next.appendShifted(it.Set, i, it.Reversible)
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
// mode. The workspace must not be shared between concurrent calls. No
// verdict table is consulted: only the engine's workers keep one.
func IsElementaryWS(p *nullspace.Problem, set *ModeSet, i int, tol float64, ws *linalg.Workspace, scratch []int) bool {
	support := set.BitsWords(i)
	union := ws.Words(len(support))
	liveMask(p, union, support)
	ok, _ := nullityIsOne(p, ws, support, union, tol, scratch, nil)
	return ok
}

// liveMask sets dst, ⌈q/64⌉ words, to the OR of ColMask over the
// identity columns J = support ∩ [0,D): the rows in which some column of
// J is non-zero, J's own identity rows among them.
func liveMask(p *nullspace.Problem, dst, support []uint64) {
	clear(dst)
	qw := len(dst)
	for w := 0; w*64 < p.D; w++ {
		for v := rowsIn(support[w], w, 0, p.D); v != 0; v &= v - 1 {
			c := w*64 + trailingZeros(v)
			for k, m := range p.ColMask[c*qw : c*qw+qw] {
				dst[k] |= m
			}
		}
	}
}

// nullityIsOne is the algebraic rank test: does N restricted to the
// support S have nullity exactly one? The kernel is K = [I_D ; K₂], so a
// kernel vector supported inside S is K·y with y zero outside J = S∩[0,D)
// and K₂·y zero on T̄, the pivot rows [D,q) outside S:
//
//	nullity(N[:,S]) = |J| − rank K₂[T̄, J].
//
// The block's exact zero pattern decides what it can before a float is
// gathered (DESIGN §7). union is S's liveMask: the rows any column of J
// touches. A column of K has one non-zero identity row, its own, which is
// in S; so union's rows outside S are the rows of T̄ the block does not
// leave all zero, and when fewer than |J|−1 of them are left the rank
// cannot reach |J|−1: the candidate is rejected by that count alone, in
// O(words). Only a test that survives it gathers each column's rows of T̄
// off ColMask. Then peel strips free columns and singleton pivots, and
// only the block left, if any, is eliminated, with an early exit past the
// deficiency the peel left it. The block and that deficiency decide the
// elimination's verdict, so vt, when non-nil, is asked for it first and
// told what an elimination found. eliminated reports whether the verdict
// is an elimination's, run or read from vt. union is read only by the
// count, before ws is asked for its words, so it may be ws's own Words.
func nullityIsOne(p *nullspace.Problem, ws *linalg.Workspace, support, union []uint64, tol float64, scratch []int, vt *verdictTable) (ok, eliminated bool) {
	d := p.D
	cols := scratch[:0]
	for w := 0; w*64 < d; w++ {
		for v := rowsIn(support[w], w, 0, d); v != 0; v &= v - 1 {
			cols = append(cols, w*64+trailingZeros(v))
		}
	}
	nj, nlive := len(cols), 0
	for k, v := range union {
		nlive += popcount(v &^ support[k])
	}
	if nj == 0 || nlive < nj-1 {
		return false, false
	}
	// The mask scratch, in words of rows: each column of J's rows of T̄,
	// then the live rows — in ≥ 1 of those columns — and the rows in ≥ 2.
	qw := len(union)
	words := ws.Words((nj + 2) * qw)
	rc, live, twos := words[:nj*qw], words[nj*qw:(nj+1)*qw], words[(nj+1)*qw:]
	colMask := p.ColMask // held here, not reloaded through p after each store to rc
	for k := range live {
		var one, two uint64
		out := ^support[k]
		for i, c := range cols {
			v := colMask[c*qw+k] & out
			rc[i*qw+k] = v
			two |= one & v
			one |= v
		}
		live[k], twos[k] = one, two
	}
	nc, free := peel(cols, rc, live, twos)
	if free > 1 {
		return false, false
	}
	cols = cols[:nc]
	allow := 1 - free // the deficiency the block left may still have
	if nc == 0 {
		return allow == 0, false
	}
	nrows := 0
	for _, v := range live {
		nrows += popcount(v)
	}
	if nrows < nc-allow {
		return false, false
	}
	var slot int
	if vt != nil {
		if slot, ok = vt.lookup(p, tol, cols, live, allow); slot < 0 {
			return ok, true
		}
	}
	// The rows left follow the columns left in the index scratch.
	rows := cols[nc:nc]
	for w, v := range live {
		for ; v != 0; v &= v - 1 {
			rows = append(rows, w*64+trailingZeros(v))
		}
	}
	buf := ws.Buffer(len(rows), nc)
	maxAbs, o := 0.0, 0
	for _, r := range rows {
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
	exceeds, def := ws.RankDeficiencyExceeds(buf, len(rows), nc, maxAbs, tol, allow)
	ok = !exceeds && def == allow
	if vt != nil {
		vt.store(slot, allow, ok)
	}
	return ok, true
}

// peel strips from the block K₂[T̄,J] what its zero pattern decides
// exactly, until no rule fires:
//   - a column no live row touches is free: it adds 1 to the nullity;
//   - a row in one column is a pivot: row operations with it clear that
//     column elsewhere and touch nothing else, so the row and its column
//     go and the rank drops by exactly one;
//   - a column in one row is a pivot by column operations, likewise.
//
// A mask bit is set iff the exact entry is non-zero, so every rule holds
// in rational arithmetic. The block is cols, column cols[i]'s rows in
// rc[i·qw:(i+1)·qw], with live its rows and twos those in ≥ 2 of its
// columns (qw = len(live) words each). peel returns the columns left,
// compacted in order to the front of cols and rc, and the free columns
// found; it stops once there are two of them. live is left holding the
// rows not peeled. A block of one word of rows, every network of the
// benchmark, takes peelWord, the same steps on scalar masks.
func peel(cols []int, rc, live, twos []uint64) (nc, free int) {
	if len(live) == 1 {
		nc, free, live[0] = peelWord(cols, rc, live[0], twos[0])
		return nc, free
	}
	qw, n := len(live), len(cols)
	for {
		// Row singletons, a word of rows at a time: the rows in one column
		// are pivots and go, and so does every column holding one. Each
		// is in exactly one column, so the scan stops once all are found;
		// a column's second singleton is empty once the first has pivoted
		// it, so it pivots nothing more.
		for k, l := range live {
			singles := l &^ twos[k]
			live[k] = l &^ singles
			for i := 0; singles != 0 && i < n; i++ {
				if v := rc[i*qw+k] & singles; v != 0 {
					cols[i] = -1
					singles &^= v
				}
			}
		}
		// One sweep over the columns drops the free ones and pivots the
		// column singletons.
		m := 0
		for i := 0; i < n; i++ {
			if cols[i] < 0 {
				continue
			}
			x := rc[i*qw : i*qw+qw]
			cnt := 0
			for k, v := range x {
				cnt += popcount(v & live[k])
			}
			switch cnt {
			case 0:
				if free++; free > 1 {
					return m, free
				}
			case 1:
				for k, v := range x {
					live[k] &^= v
				}
			default:
				y := rc[m*qw : m*qw+qw]
				for k, v := range x {
					y[k] = v & live[k]
				}
				cols[m] = cols[i]
				m++
			}
		}
		n = m
		// Count the rows again over the columns kept. A row a pivot took
		// after its column was kept leaves that column's count stale.
		again := false
		for k := range live {
			l := live[k]
			var one, two, lost uint64
			for i := k; i < n*qw; i += qw {
				v := rc[i]
				lost |= v &^ l
				v &= l
				rc[i] = v
				two |= one & v
				one |= v
			}
			live[k], twos[k] = one, two
			again = again || lost != 0 || one&^two != 0
		}
		if !again {
			return n, free
		}
	}
}

// peelWord is peel on a block of one word of rows, live and twos held in
// registers; it returns the rows not peeled.
func peelWord(cols []int, rc []uint64, live, twos uint64) (nc, free int, left uint64) {
	n := len(cols)
	for {
		// Row singletons, as in peel; the rows in ≥ 2 columns stay.
		singles := live &^ twos
		live = twos
		for i := 0; singles != 0 && i < n; i++ {
			if v := rc[i] & singles; v != 0 {
				cols[i] = -1
				singles &^= v
			}
		}
		m := 0
		for i := 0; i < n; i++ {
			if cols[i] < 0 {
				continue
			}
			switch x := rc[i] & live; {
			case x == 0:
				if free++; free > 1 {
					return m, free, live
				}
			case x&(x-1) == 0:
				live &^= x
			default:
				rc[m] = x
				cols[m] = cols[i]
				m++
			}
		}
		n = m
		var one, two, lost uint64
		for i, v := range rc[:n] {
			lost |= v &^ live
			v &= live
			rc[i] = v
			two |= one & v
			one |= v
		}
		live, twos = one, two
		if lost == 0 && one&^two == 0 {
			return n, free, live
		}
	}
}

// A verdict table starts at verdictTableSlots slots and doubles, keeping
// its entries, each time its stores reach half its slots, until its keys
// fill verdictTableWords words: 256 KiB on every network, 2¹⁴ slots at a
// word of columns and a word of rows. A small run's few eliminations so
// never pay for the whole table, and the entries a short run has found
// survive its doublings.
const (
	verdictTableSlots = 1 << 9
	verdictTableWords = 1 << 15
)

// verdictTable remembers the verdicts of a worker's rank-test
// eliminations (DESIGN §7). An elimination gathers KernelRows[rows, cols]
// in ascending order, the peel's columns and live rows, and eliminates it
// under the tolerance with the deficiency allow may still leave; so its
// verdict is a function of (cols, rows, allow) on one problem and
// tolerance, and the table is emptied when either changes. It is
// direct-mapped and pointer-free: a slot stores its key inline — the
// columns as ⌈D/64⌉ words of bits, then the ⌈q/64⌉ words of rows — and
// allow and the verdict in its meta byte, and a lookup matches on the
// whole key, never on the hash alone. The zero value is ready to use and
// allocates on its first lookup; give each worker its own.
type verdictTable struct {
	p      *nullspace.Problem
	tol    float64
	dw     int      // key words of columns; the rows follow
	shift  uint     // a hash's top bits index the slot: 64 − log₂ slots
	keys   []uint64 // slot s's key: keys[s·stride : (s+1)·stride]
	meta   []uint8  // slot s: 0 empty, else 1 | allow<<1 | verdict<<2
	key    []uint64 // the key of the last lookup
	stores int
	hits   int64
	misses int64
}

// lookup returns the stored verdict of the block — the columns cols and
// the rows set in live, eliminated with allow deficiency left — with slot
// −1, or on a miss the slot its verdict is to be stored in.
func (t *verdictTable) lookup(p *nullspace.Problem, tol float64, cols []int, live []uint64, allow int) (slot int, ok bool) {
	if t.p != p || t.tol != tol {
		t.p, t.tol, t.dw = p, tol, (p.D+63)/64
		t.key, t.meta, t.stores = make([]uint64, t.dw+len(live)), nil, 0
	}
	key := t.key
	clear(key[:t.dw])
	for _, c := range cols {
		key[c/64] |= 1 << uint(c%64)
	}
	copy(key[t.dw:], live)
	if t.meta == nil {
		t.alloc(verdictTableSlots)
	}
	slot = t.slot(key, allow)
	stride := len(key)
	if m := t.meta[slot]; m != 0 && int(m>>1&1) == allow && equalWords(key, t.keys[slot*stride:slot*stride+stride]) {
		t.hits++
		return -1, m>>2 != 0
	}
	t.misses++
	return slot, false
}

// store records in slot the verdict of the block the last lookup missed.
func (t *verdictTable) store(slot, allow int, ok bool) {
	stride := len(t.key)
	copy(t.keys[slot*stride:], t.key)
	m := uint8(1 | allow<<1)
	if ok {
		m |= 4
	}
	t.meta[slot] = m
	if t.stores++; 2*t.stores < len(t.meta) || 2*len(t.keys) > verdictTableWords {
		return
	}
	keys, meta := t.keys, t.meta
	t.alloc(2 * len(meta))
	for s, m := range meta {
		if m != 0 {
			k := keys[s*stride : s*stride+stride]
			d := t.slot(k, int(m>>1&1))
			copy(t.keys[d*stride:], k)
			t.meta[d] = m
		}
	}
}

// alloc gives the table n empty slots, n a power of two.
func (t *verdictTable) alloc(n int) {
	t.keys, t.meta = make([]uint64, n*len(t.key)), make([]uint8, n)
	t.shift = uint(64 - trailingZeros(uint64(n)))
}

// slot is where the key of the given allowance lives. FNV leaves its top
// bits blind to the key's low row bits; folding them down before the
// Fibonacci multiply whose top bits pick the slot spreads the blocks.
func (t *verdictTable) slot(key []uint64, allow int) int {
	h := hashWords(key) ^ uint64(allow)
	return int((h ^ h>>32) * 0x9e3779b97f4a7c15 >> t.shift)
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
