// Shared-memory parallel execution layer for the Nullspace Algorithm:
// a worker pool that cuts one row's |Pos|×|Neg| pair range into ordered
// chunks — in a group of nodes, dealt round-robin across the nodes —
// lets the workers pull them into private (ModeSet, Workspace,
// IterStats, GenScratch) state reused across rows, hands the accepted
// candidates on in chunk order, then merges them with a parallel
// sorted-by-support k-way merge.
//
// Determinism: pair k of a row always combines Pos[k/|Neg|] with
// Neg[k%|Neg|], chunks are contiguous and laid down in chunk order
// whichever worker or node ran them, and the merge orders candidates by
// the total order (support, generation position) — so the final mode set
// is bit-identical for every node and worker count, and every serial
// invariant test doubles as a correctness oracle for this layer.
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
// so a worker can reuse them across rows and chunks, and the worker's
// verdict table, whose entries outlive them. The zero value is ready to
// use. Not safe for concurrent use; give each worker its own.
// (Row-constant state — the prefix mask, the popcount caches and the
// negative columns' liveMasks — lives on the RowIter instead, computed
// once per row and shared read-only.)
type GenScratch struct {
	cand     []uint64 // the candidate's support words
	posLive  []uint64 // the positive column's liveMask
	union    []uint64 // the candidate's liveMask
	keep     []uint64 // a bitmap of the negative positions that passed the pre-test
	newTail  []float64
	newRev   []float64
	rankIdx  []int        // the rank test's column and row indices
	visit    []int32      // negative positions the generation tree left to probe
	verdicts verdictTable // the rank test's eliminations, by peeled block
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
	runs    []*ModeSet // the current row's chunk runs, reused
	// The chunk boundaries and records of the current row, reused across
	// rows.
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
	dst.Tested += src.Tested
	dst.Eliminated += src.Eliminated
	dst.FullPasses += src.FullPasses
	dst.Accepted += src.Accepted
	dst.GenSeconds += src.GenSeconds
	dst.TestSeconds += src.TestSeconds
}

// chunksPerWorker is how many chunks per worker, per node of a group, a
// range is cut into. Pairs cost anything from one popcount to a rank
// test and the rank tests cluster in a few positive columns, so equal
// shares of the pair range are not equal shares of the work; workers pull
// small chunks instead, nodes are dealt every size-th one, and the skew
// left is about one chunk's cost.
const chunksPerWorker = 32

// genChunk records where one chunk's accepted candidates sit: modes
// [start, end) of the private set of the worker that ran it.
type genChunk struct {
	worker     *poolWorker
	start, end int
}

// cutChunks returns the boundaries of the chunks of [from, to) for a
// group of size nodes: equal shares of the pair range, wherever they fall
// in a positive column. The lone worker of a group of one runs the range
// as one chunk.
func (pl *Pool) cutChunks(from, to int64, size int) []int64 {
	if size*len(pl.workers) == 1 {
		pl.bounds = append(pl.bounds[:0], from, to)
		return pl.bounds
	}
	want := int64(size * len(pl.workers) * chunksPerWorker)
	step := (to - from + want - 1) / want
	bounds := append(pl.bounds[:0], from)
	for b := from + step; b < to; b += step {
		bounds = append(bounds, b)
	}
	pl.bounds = append(bounds, to)
	return pl.bounds
}

// dealtChunks is how many of n chunks node rank of a group of size is
// dealt: chunks rank, rank+size, rank+2·size, …
func dealtChunks(n, rank, size int) int {
	return (n - rank + size - 1) / size
}

// generate cuts [from, to) into the chunks of a group of size nodes and
// runs those dealt to node rank on the pool's workers, which pull them
// from a shared counter into their private sets. It returns the runs of
// accepted candidates of the node's chunks in chunk order, empty runs
// included — views into the private sets, nothing is copied — and the
// row's total chunk count. Per-worker counters and sampled phase seconds
// are summed into st.
func (pl *Pool) generate(it *RowIter, from, to int64, rank, size int, st *IterStats) ([]*ModeSet, int) {
	to = max(from, min(to, it.Pairs()))
	for _, w := range pl.workers {
		w.cands = it.ResetCandidateSet(w.cands)
		w.st = IterStats{}
	}
	bounds := pl.cutChunks(from, to, size)
	n := len(bounds) - 1
	mine := dealtChunks(n, rank, size)
	if cap(pl.chunks) < mine {
		pl.chunks = make([]genChunk, mine)
	}
	chunks := pl.chunks[:mine]
	var next atomic.Int64
	pull := func(w *poolWorker) {
		for i := next.Add(1) - 1; i < int64(mine); i = next.Add(1) - 1 {
			c := rank + int(i)*size
			start := w.cands.Len()
			it.GenerateIntoScratch(w.cands, w.ws, bounds[c], bounds[c+1], &w.st, &w.sc)
			chunks[i] = genChunk{w, start, w.cands.Len()}
		}
	}
	active := pl.workers[:max(1, min(len(pl.workers), mine))]
	var wg sync.WaitGroup
	for _, w := range active[1:] {
		wg.Add(1)
		go func(w *poolWorker) {
			defer wg.Done()
			pull(w)
		}(w)
	}
	pull(active[0])
	wg.Wait()
	for _, w := range pl.workers {
		AddGenStats(st, &w.st)
	}
	pl.runs = pl.runs[:0]
	for _, c := range chunks {
		pl.runs = append(pl.runs, c.worker.cands.view(c.start, c.end))
	}
	return pl.runs, n
}

// GenerateRange generates the candidates for pair indices [from, to) of
// the row on the pool's workers, as a group of one: the returned sets are
// the non-empty chunks' runs in chunk order, so their concatenation is
// exactly the serial generation order whichever worker ran which chunk.
// The returned sets remain owned by the pool and are valid until its next
// GenerateRange or Deal call.
func (pl *Pool) GenerateRange(it *RowIter, from, to int64, st *IterStats) []*ModeSet {
	runs, _ := pl.generate(it, from, to, 0, 1, st)
	sets := runs[:0]
	for _, r := range runs {
		if r.Len() > 0 {
			sets = append(sets, r)
		}
	}
	return sets
}

// Deal generates node rank's share of the row for a group of size nodes:
// the whole pair range is cut into size × Workers × chunksPerWorker
// chunks, the same way on every node — the cut is a function of the row,
// the group size and the group's shared Workers option alone — and the
// node runs chunks rank, rank+size, rank+2·size, …. Chunks are dealt
// round-robin rather than handed out as one contiguous slice per node
// because the rank tests cluster in a few positive columns: a contiguous
// slice of equal pair count is not an equal share of the work. The Deal
// is valid until the pool's next GenerateRange or Deal call.
func (pl *Pool) Deal(it *RowIter, rank, size int, st *IterStats) *Deal {
	runs, n := pl.generate(it, 0, it.Pairs(), rank, size, st)
	return &Deal{rank: rank, size: size, chunks: n, layout: pl.workers[0].cands, runs: runs}
}

// AssembleNext is the pool-parallel counterpart of RowIter.AssembleNext:
// the candidate sets are split into one contiguous group per worker,
// even by candidate count; each worker sorts its group by support, the
// sorted runs are k-way merged under the same total order the serial
// sort uses, and cross-worker duplicates collapse during assembly.
// candSets may be the pool's own GenerateRange output or any other sets
// with the next iteration's layout (in a group, what Deal.Gather
// returned: every node's chunk runs in chunk order). The result is
// bit-identical to RowIter.AssembleNext.
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
