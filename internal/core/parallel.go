// Shared-memory parallel execution layer for the Nullspace Algorithm:
// a worker pool that cuts one row's |Pos|×|Neg| pair range into ordered
// chunks, lets the workers pull them into private (ModeSet, Workspace,
// IterStats, GenScratch) state reused across rows, hands the accepted
// candidates on in chunk order, then merges them with a parallel
// sorted-by-support k-way merge.
//
// Determinism: pair k of a row always combines Pos[k/|Neg|] with
// Neg[k%|Neg|], chunks are contiguous and returned in order whichever
// worker ran them, and the merge orders candidates by the total order
// (support, generation position) — so the final mode set is
// bit-identical for every worker count, and every serial invariant test
// doubles as a correctness oracle for this layer.
package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"elmocomp/internal/linalg"
	"elmocomp/internal/nullspace"
)

// GenScratch holds the per-call buffers of GenerateIntoScratch, hoisted
// so a worker can reuse them across rows and chunks. The zero value is
// ready to use. Not safe for concurrent use; give each worker its own.
// (Row-constant state — the prefix mask and the popcount caches — lives
// on the RowIter instead, computed once per row and shared read-only.)
type GenScratch struct {
	orWords []uint64
	newTail []float64
	newRev  []float64
	rankIdx []int   // the rank test's column and live-row indices
	visit   []int32 // negative positions the generation tree left to probe
}

// growUint64 reslices *buf to n words, reallocating only when the
// retained capacity is too small. Contents are unspecified.
func growUint64(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growFloat64(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// poolWorker is the private state of one shared-memory worker.
type poolWorker struct {
	cands *ModeSet
	ws    *linalg.Workspace
	sc    GenScratch
	st    IterStats
	run   []candRef // sorted candidate refs, reused across rows
	tmp   []candRef // radix-sort scatter buffer, reused across rows
}

// Pool is a reusable shared-memory worker pool for one node's run of the
// row loop (RunNode). It owns per-worker candidate sets, rank-test
// workspaces and generation scratch, all recycled across rows so the
// steady state allocates only for mode growth. A Pool is not safe for
// concurrent use by multiple goroutines; each node builds its own.
type Pool struct {
	problem *nullspace.Problem
	workers []*poolWorker
	sets    []*ModeSet // GenerateRange result slice, reused
	// Chunked generation (more than one worker): the chunk boundaries and
	// records of the current row, reused across rows.
	bounds []int64
	chunks []genChunk
}

// NewPool returns a pool with the given worker count; workers <= 0 means
// GOMAXPROCS.
func NewPool(p *nullspace.Problem, workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pl := &Pool{problem: p}
	for i := 0; i < workers; i++ {
		pl.workers = append(pl.workers, &poolWorker{
			ws: linalg.NewWorkspace(p.M()+2, p.M()+2),
		})
	}
	return pl
}

// Workers returns the pool's worker count.
func (pl *Pool) Workers() int { return len(pl.workers) }

// AddGenStats folds the generation-side counters and phase seconds of src
// into dst: counters and CPU seconds sum, over a pool's workers and over
// a group's nodes alike; merge-side fields are left untouched.
func AddGenStats(dst, src *IterStats) {
	dst.Pairs += src.Pairs
	dst.Visited += src.Visited
	dst.Prefiltered += src.Prefiltered
	dst.TreeRejects += src.TreeRejects
	dst.Tested += src.Tested
	dst.Eliminated += src.Eliminated
	dst.Accepted += src.Accepted
	dst.GenSeconds += src.GenSeconds
	dst.TestSeconds += src.TestSeconds
}

// chunksPerWorker is how many chunks per worker GenerateRange cuts a
// range into. Pairs cost anything from one popcount to a rank test and
// the rank tests cluster in a few positive columns, so equal shares of
// the pair range are not equal shares of the work; workers pull small
// chunks instead, and the skew left is at most one chunk's cost.
const chunksPerWorker = 32

// genChunk records where one chunk's accepted candidates sit: modes
// [start, end) of the private set of the worker that ran it.
type genChunk struct {
	worker     *poolWorker
	start, end int
}

// cutChunks returns the boundaries of the chunks of [from, to): equal
// shares of the pair range, moved down to the positive-column boundary
// below whenever a share spans a column, so that only the range's own
// first and last column are ever generated in part.
func (pl *Pool) cutChunks(it *RowIter, from, to int64) []int64 {
	nNeg := int64(len(it.Neg))
	want := int64(len(pl.workers) * chunksPerWorker)
	size := (to - from + want - 1) / want
	if it.genTree != nil && size < nNeg {
		size = nNeg // the tree answers for whole columns only
	}
	bounds := append(pl.bounds[:0], from)
	for b := from + size; b < to; b += size {
		if size >= nNeg {
			bounds = append(bounds, b-b%nNeg)
		} else {
			bounds = append(bounds, b)
		}
	}
	pl.bounds = append(bounds, to)
	return pl.bounds
}

// GenerateRange generates the candidates for pair indices [from, to) of
// the row on the pool's workers. The range is cut into ordered chunks
// that the workers pull from a shared counter into their private sets;
// the returned sets are then the chunks' runs of accepted candidates in
// chunk order — views into the private sets, nothing is copied — so
// their concatenation is exactly the serial generation order whichever
// worker ran which chunk. (One worker runs the range in one call and
// returns its set.) Per-worker counters and sampled phase seconds are
// summed into st. The returned sets remain owned by the pool and are
// valid until the next GenerateRange call.
func (pl *Pool) GenerateRange(it *RowIter, from, to int64, st *IterStats) []*ModeSet {
	n := len(pl.workers)
	to = max(from, min(to, it.Pairs()))
	for _, w := range pl.workers {
		w.cands = it.ResetCandidateSet(w.cands)
		w.st = IterStats{}
	}
	if n == 1 || to == from {
		w := pl.workers[0]
		it.GenerateIntoScratch(w.cands, w.ws, from, to, &w.st, &w.sc)
		AddGenStats(st, &w.st)
		pl.sets = append(pl.sets[:0], w.cands)
		return pl.sets
	}
	bounds := pl.cutChunks(it, from, to)
	if cap(pl.chunks) < len(bounds)-1 {
		pl.chunks = make([]genChunk, len(bounds)-1)
	}
	chunks := pl.chunks[:len(bounds)-1]
	var next atomic.Int64
	pull := func(w *poolWorker) {
		for c := next.Add(1) - 1; c < int64(len(chunks)); c = next.Add(1) - 1 {
			start := w.cands.Len()
			it.GenerateIntoScratch(w.cands, w.ws, bounds[c], bounds[c+1], &w.st, &w.sc)
			chunks[c] = genChunk{w, start, w.cands.Len()}
		}
	}
	var wg sync.WaitGroup
	for _, w := range pl.workers[1:] {
		wg.Add(1)
		go func(w *poolWorker) {
			defer wg.Done()
			pull(w)
		}(w)
	}
	pull(pl.workers[0])
	wg.Wait()
	pl.sets = pl.sets[:0]
	for _, w := range pl.workers {
		AddGenStats(st, &w.st)
	}
	for _, c := range chunks {
		if c.end > c.start {
			pl.sets = append(pl.sets, c.worker.cands.view(c.start, c.end))
		}
	}
	return pl.sets
}

// AssembleNext is the pool-parallel counterpart of RowIter.AssembleNext:
// the candidate sets are split into one contiguous group per worker,
// even by candidate count; each worker sorts its group by support, the
// sorted runs are k-way merged under the same total order the serial
// sort uses, and cross-worker duplicates collapse during assembly.
// candSets may be the pool's own GenerateRange output or any other sets
// with the next iteration's layout (in a group, what the exchange
// returned: one set per node). The result is bit-identical to
// RowIter.AssembleNext.
func (pl *Pool) AssembleNext(it *RowIter, candSets []*ModeSet) (*ModeSet, error) {
	t0 := time.Now()
	total := 0
	for _, cs := range candSets {
		total += cs.Len()
	}
	groups := min(len(pl.workers), len(candSets))
	runs := make([][]candRef, groups)
	var wg sync.WaitGroup
	si, done := 0, 0
	for g := 0; g < groups; g++ {
		// The tie-break (set, idx) is generation order across the whole
		// slice of sets, so sorting a group of them as one run already
		// realizes the global total order within the group.
		w := pl.workers[g]
		buf := w.run[:0]
		for ; si < len(candSets) && (g == groups-1 || done < total*(g+1)/groups); si++ {
			for i := 0; i < candSets[si].Len(); i++ {
				buf = append(buf, candRef{int32(si), int32(i)})
			}
			done += candSets[si].Len()
		}
		w.run, runs[g] = buf, buf
		wg.Add(1)
		go func() {
			defer wg.Done()
			radixSortRefs(candSets, buf, &w.tmp)
		}()
	}
	wg.Wait()
	return it.assemble(candSets, mergeRuns(candSets, runs), t0)
}

// mergeRuns k-way merges per-set sorted runs into one globally sorted ref
// sequence. Runs are few (one per worker or per node), so a linear head
// scan beats heap bookkeeping.
func mergeRuns(candSets []*ModeSet, runs [][]candRef) []candRef {
	total := 0
	nonEmpty := 0
	last := -1
	for si, r := range runs {
		total += len(r)
		if len(r) > 0 {
			nonEmpty++
			last = si
		}
	}
	if nonEmpty == 0 {
		return nil
	}
	if nonEmpty == 1 {
		return runs[last]
	}
	out := make([]candRef, 0, total)
	heads := make([]int, len(runs))
	for len(out) < total {
		best := -1
		for si := range runs {
			if heads[si] >= len(runs[si]) {
				continue
			}
			if best < 0 || compareRefs(candSets, runs[si][heads[si]], runs[best][heads[best]]) < 0 {
				best = si
			}
		}
		out = append(out, runs[best][heads[best]])
		heads[best]++
	}
	return out
}

// ResetCandidateSet recycles set into the layout NewCandidateSet would
// produce, retaining its storage; a nil set is allocated fresh.
func (it *RowIter) ResetCandidateSet(set *ModeSet) *ModeSet {
	if set == nil {
		return it.NewCandidateSet()
	}
	set.Reset(it.Set.Q(), it.Row+1, it.nextRev)
	return set
}
