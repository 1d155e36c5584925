package revsearch

import (
	"sync"
	"sync/atomic"

	"elmocomp/internal/lp"
)

// rootDictionary pivots the phase-1 dictionary in place, by the forward
// lexicographic simplex, to the optimum of the symbolically perturbed
// objective. Primal perturbation (lex-ratio leaving rule) excludes
// cycling; dual perturbation (reducedSign) makes the optimal dictionary
// unique — the root of the reverse-search tree.
func rootDictionary(d *lp.Dict, cancel <-chan struct{}) error {
	for iter := 0; ; iter++ {
		if iter%64 == 0 && canceled(cancel) {
			return ErrCanceled
		}
		s, r, ok, err := selectPivot(d)
		if err != nil || !ok {
			return err
		}
		d.Pivot(r, s)
	}
}

// collector accumulates the union of vertex supports across subtree
// jobs. Supports are keyed by their packed words; insertion order is
// irrelevant because the visited dictionary set — hence the support
// set — is a pure function of the lp, not of scheduling.
type collector struct {
	mu       sync.Mutex
	words    int
	supports map[string][]uint64
	bytes    int64
}

func newCollector(n int) *collector {
	return &collector{words: (n + 63) / 64, supports: make(map[string][]uint64)}
}

func (c *collector) add(w []uint64) {
	buf := make([]byte, len(w)*8)
	for i, v := range w {
		for b := 0; b < 8; b++ {
			buf[i*8+b] = byte(v >> uint(8*b))
		}
	}
	k := string(buf)
	c.mu.Lock()
	if _, ok := c.supports[k]; !ok {
		c.supports[k] = append([]uint64(nil), w...)
		c.bytes += int64(len(w)*8*2) + 64
	}
	c.mu.Unlock()
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.supports)
}

// job is one restartable unit of traversal: a lex-feasible basis whose
// subtree (itself included) remains to be explored.
type job struct {
	basis []int
	depth int
}

// walker explores subtrees of the reverse-search tree. One walker runs
// per worker goroutine; all share the search state.
type walker struct {
	s       *search
	scratch []uint64
}

// search is the shared state of one enumeration run.
type search struct {
	// root is the reverse-search root dictionary. Jobs only Rebuild
	// from it (which reads the shared immutable program), never pivot
	// it, so workers share it without locking.
	root   *lp.Dict
	col    *collector
	opts   Options
	budget int // nodes a job may visit before deferring children

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*job
	pending int
	failed  error
	// stopped is set (under mu, with failed) on the first failure and
	// polled lock-free by every walker's inner loop.
	stopped atomic.Bool

	bases    atomic.Int64
	pivots   atomic.Int64
	jobs     atomic.Int64
	maxDepth atomic.Int64
	peak     atomic.Int64
	widened  atomic.Int64
}

func (s *search) fail(err error) {
	s.mu.Lock()
	if s.failed == nil {
		s.failed = err
	}
	s.stopped.Store(true)
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *search) enqueue(j *job) {
	s.mu.Lock()
	s.queue = append(s.queue, j)
	s.pending++
	s.jobs.Add(1)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// next pops a job, or returns nil when the traversal is complete or
// aborted. Blocks while peers may still produce work.
func (s *search) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped.Load() {
			return nil
		}
		if len(s.queue) > 0 {
			j := s.queue[len(s.queue)-1]
			s.queue[len(s.queue)-1] = nil
			s.queue = s.queue[:len(s.queue)-1]
			return j
		}
		if s.pending == 0 {
			return nil
		}
		s.cond.Wait()
	}
}

func (s *search) done() {
	s.mu.Lock()
	s.pending--
	if s.pending == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// noteDepth folds a visited depth into the high-water mark.
func (s *search) noteDepth(d int) {
	for {
		cur := s.maxDepth.Load()
		if int64(d) <= cur || s.maxDepth.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// runJob rebuilds the job's dictionary and walks its subtree. Children
// discovered after the per-job node budget is spent are re-enqueued as
// fresh jobs instead of being descended into — mplrs-style restartable
// subtrees: the child test depends only on the child's own dictionary,
// so a basis snapshot is a complete continuation.
func (w *walker) runJob(j *job) {
	s := w.s
	d, err := s.root.Rebuild(j.basis)
	if err != nil {
		s.fail(err)
		return
	}
	remaining := s.budget
	w.walk(d, j.depth, &remaining)
	s.pivots.Add(d.Pivots())
	if d.Wide() {
		s.widened.Add(1)
	}
	est := d.Bytes()
	for {
		cur := s.peak.Load()
		if est <= cur || s.peak.CompareAndSwap(cur, est) {
			break
		}
	}
}

// walk visits the dictionary (emitting its vertex support) and recurses
// into every reverse child: a pivot (r, l) — cobasic l entering at row
// r — whose result is lex-feasible and whose unique forward pivot leads
// straight back. Four pruning identities decide each candidate column
// without ever pivoting unless the child is real:
//
//   - l's reduced cost must be negative: the forward step's entering
//     reduced cost is positive, and pivoting flips exactly its sign
//     (the child's reduced cost of w is -d_l over the positive pivot).
//   - The child is lex-feasible iff r is THE lex-min-ratio row of
//     column l at this dictionary: pivoting on any other positive row
//     drives the true minimum row lex-negative, and non-positive rows
//     only ever add a non-negative multiple of a lex-positive row. So
//     each column has at most one candidate row — no row loop.
//   - The forward entering at the child must be w (the variable
//     displaced from row r). Its own reduced cost is positive by the
//     first identity, so the child is valid iff no child-cobasic
//     BELOW w has a positive reduced cost — checked lazily against the
//     parent entries (childReducedSign), no trial pivot.
//   - The forward leaving row at the child is automatically r: in the
//     child, column w is positive in row r (1/p) and in exactly the
//     rows with T[i][l] < 0, and those rows' lex-ratios exceed row r's
//     by (p/-T[i][l]) times row i's lex-positive parent tuple. So the
//     ratio test needs no verification at all.
func (w *walker) walk(d *lp.Dict, depth int, remaining *int) {
	s := w.s
	if s.stopped.Load() {
		return
	}
	if canceled(s.opts.Cancel) {
		s.fail(ErrCanceled)
		return
	}
	s.bases.Add(1)
	s.noteDepth(depth)
	*remaining--
	w.scratch = d.SupportWords(w.scratch)
	s.col.add(w.scratch)
	if s.opts.Progress != nil {
		if n := s.bases.Load(); n%4096 == 0 {
			s.opts.Progress(n, int64(s.col.len()))
		}
	}

	n := d.NumVars()
	for l := 0; l < n; l++ {
		if s.stopped.Load() {
			return
		}
		if d.RowOf(l) >= 0 || reducedSign(d, l) > 0 {
			continue
		}
		r := d.LexMinRatioRow(l)
		if r < 0 {
			continue
		}
		wvar := d.BasicVar(r)
		// Forward entering at the child is the least-index cobasic with
		// a positive reduced cost; it must be wvar. Its own sign is
		// positive by construction, so reject iff any cobasic below it
		// is positive too — read off the parent without pivoting.
		ok := true
		for j := 0; j < wvar; j++ {
			if j == l || d.RowOf(j) >= 0 {
				continue
			}
			if childReducedSign(d, j, r, l) > 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// (r, l) inverts the child's forward pivot: descend, or defer
		// the subtree when the budget is spent.
		if *remaining > 0 {
			d.Pivot(r, l)
			w.walk(d, depth+1, remaining)
			if s.stopped.Load() {
				return
			}
			d.Pivot(r, wvar) // unpivot: exact restore
		} else {
			// Deferring a subtree needs only the child's basis.
			s.enqueue(&job{basis: d.BasisAfter(r, l), depth: depth + 1})
		}
	}
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
