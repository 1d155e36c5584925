// The Algorithm 3 driver: every divide-and-conquer run goes through this
// scheduler, at one node group by default.
//
// A bounded pool of node groups (and, under Options.Remote, one
// dispatcher per remote executor slot) pulls classes from a shared work
// queue ordered largest-estimated-first (the kernel's pair-count
// estimate), runs each through the inner parallel algorithm, and converts
// budget-triggered re-splits into new queue items. One policy function,
// runClass, owns the budget / re-split / soft-retry / unresolved state
// machine for local and remote classes alike. The result is
// byte-identical at every concurrency level and executor mix:
//
//   - The subproblem tree is indexed by class, not by completion order.
//     Root classes are pre-created in ID order before any group starts;
//     a re-split's two children are appended in bit order (zero-flux
//     child first) by the single group that owns the parent.
//   - Classes are disjoint, so their supports are pairwise distinct, and
//     collectSupports sorts the union with a total comparator — the
//     final Supports order cannot depend on which group finished first.
//
// Faults propagate through a group-scoped abort latch (the cluster
// substrate's first-trip-wins latch): the first genuine failure trips
// it, every in-flight enumeration observes the trip through its Cancel
// channel, and idle groups are woken to exit. The latch's cause — not
// the ErrAborted/ErrCanceled cascade it triggers — is the run's error.
package dnc

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"time"

	"elmocomp/internal/cluster"
	"elmocomp/internal/core"
	"elmocomp/internal/ratmat"
)

// SchedClass is one completed work unit of the scheduler: a
// zero/non-zero class (or a re-split child) with its measured wall time.
type SchedClass struct {
	// Label is the zero-padded non-zero-flux bit pattern over the class's
	// partition, e.g. "011".
	Label string `json:"label"`
	// Depth is the re-split depth (0 for the initial classes).
	Depth int `json:"depth"`
	// Seconds is the class's enumeration wall time on its group or worker.
	Seconds float64 `json:"seconds"`
	// Pairs is the class's candidate-mode count.
	Pairs int64 `json:"pairs"`
	// EFMs is the class's elementary-mode count.
	EFMs int `json:"efms"`
}

// SchedStats holds the counters of one scheduler run. Counter totals are
// deterministic for a given problem and budget (the same classes are
// enqueued, stolen and re-split at every concurrency level);
// MaxQueueDepth, MaxActive and the order of Classes depend on scheduling
// and are diagnostics, not part of the byte-identical result contract.
type SchedStats struct {
	// Enqueued counts work items pushed onto the queue: the initial
	// 2^qsub classes plus two per re-split.
	Enqueued int64 `json:"enqueued"`
	// Steals counts items pulled off the queue by a node group or a
	// remote dispatcher.
	Steals int64 `json:"steals"`
	// Resplits counts budget overflows converted into new queue items.
	Resplits int64 `json:"resplits"`
	// MemResplits counts the subset of Resplits triggered by the memory
	// budget (a flat mode set too large for core.Options.MemBudget)
	// rather than the intermediate mode-count budget.
	MemResplits int64 `json:"mem_resplits"`
	// Unresolved counts classes abandoned at the re-split depth limit.
	Unresolved int64 `json:"unresolved"`
	// RemoteClasses counts classes completed on a remote worker
	// (coordinator/worker runs only; a class re-run locally after every
	// worker died is not counted here).
	RemoteClasses int64 `json:"remote_classes"`
	// RemoteRequeues counts classes pushed back onto the queue after the
	// worker running them was lost (crash, link failure, or timeout).
	// Like MemResplits, a resilience counter: nonzero means the run
	// survived a fault, not that it failed.
	RemoteRequeues int64 `json:"remote_requeues"`
	// RemoteTimeouts counts the subset of RemoteRequeues caused by a
	// class exceeding the coordinator's per-class deadline on a wedged
	// worker.
	RemoteTimeouts int64 `json:"remote_timeouts"`
	// MaxQueueDepth is the largest queue length reached (sampled wherever
	// the queue grows: an enqueue or a worker-lost requeue).
	MaxQueueDepth int `json:"max_queue_depth"`
	// MaxActive is the peak number of concurrently enumerating groups
	// and dispatchers.
	MaxActive int `json:"max_active"`
	// Classes lists per-class wall times in completion order.
	Classes []SchedClass `json:"classes,omitempty"`
}

// schedItem is one queued unit of work: a subproblem shell waiting to be
// enumerated, with its prepared inputs and priority.
type schedItem struct {
	sub  *Subproblem
	prep *prepared
	seq  int // enqueue sequence; breaks estimate ties deterministically
}

// itemQueue is a max-heap on the pair-count estimate, enqueue order
// breaking ties so the pop order is a pure function of the enqueued set.
type itemQueue []*schedItem

func (q itemQueue) Len() int { return len(q) }
func (q itemQueue) Less(a, b int) bool {
	if q[a].prep.est != q[b].prep.est {
		return q[a].prep.est > q[b].prep.est
	}
	return q[a].seq < q[b].seq
}
func (q itemQueue) Swap(a, b int)       { q[a], q[b] = q[b], q[a] }
func (q *itemQueue) Push(x interface{}) { *q = append(*q, x.(*schedItem)) }
func (q *itemQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// scheduler carries the shared state of one run.
type scheduler struct {
	N      *ratmat.Matrix
	rev    []bool
	opts   Options
	groups int // local node groups (may be 0 under a pure-remote run)
	remote RemoteExecutor

	latch *cluster.Latch
	wg    sync.WaitGroup // group + dispatcher goroutines (fallback included)

	// mu guards the queue and, because nearly every counter moves with a
	// queue operation, the run's counters too.
	mu      sync.Mutex
	cond    *sync.Cond
	queue   itemQueue
	pending int // items enqueued or being worked; 0 + empty queue = done
	seq     int
	stats   SchedStats
	active  int // classes being enumerated right now (MaxActive's gauge)
	// aliveSlots counts remote dispatchers still usable. When it hits 0
	// with classes outstanding and no local groups, the last dying
	// dispatcher spawns one emergency local group so the job finishes
	// instead of deadlocking (fallback latches it to once).
	aliveSlots int
	fallback   bool

	// progressMu serializes the user's Progress callback across groups.
	progressMu sync.Mutex

	// Cross-group live memory accounting, fed by parallel.Options.MemGauge:
	// groupBytes[g][rank] is group g's node rank's resident payload; the
	// running total's high-water mark is Result.PeakConcurrentBytes.
	memMu      sync.Mutex
	groupBytes [][]int64
	totalBytes int64
	peakBytes  int64
}

// runScheduled is the body of Run once the partition is fixed.
func runScheduled(N *ratmat.Matrix, rev []bool, partition []int, opts Options) (*Result, error) {
	s := &scheduler{
		N:      N,
		rev:    rev,
		opts:   opts,
		groups: max(opts.GroupConcurrency, 0),
		remote: opts.Remote,
		latch:  cluster.NewLatch(),
	}
	slots := 0
	if s.remote != nil {
		slots = s.remote.Slots()
	}
	if s.groups == 0 && slots == 0 {
		// Nobody else to serve the queue (the GroupConcurrency 0 default,
		// or a remote pool with no slots): one local group.
		s.groups = 1
	}
	s.aliveSlots = slots
	s.cond = sync.NewCond(&s.mu)
	nodes := opts.Parallel.Nodes
	if nodes <= 0 {
		nodes = 1
	}
	// One slot beyond the local groups so the emergency fallback group
	// of a pure-remote run has a residency row of its own.
	s.groupBytes = make([][]int64, s.groups+1)
	for g := range s.groupBytes {
		s.groupBytes[g] = make([]int64, nodes)
	}

	// Create every root class shell in ID order up front: the tree's
	// shape is fixed before any group runs, so Result.Subproblems cannot
	// depend on scheduling.
	res := &Result{Partition: partition}
	var items []*schedItem
	for id := uint64(0); id < 1<<uint(len(partition)); id++ {
		sub := &Subproblem{ID: id, Partition: append([]int(nil), partition...)}
		res.Subproblems = append(res.Subproblems, sub)
		pr := prepare(N, rev, partition, id)
		if pr == nil {
			sub.Skipped = true
			continue
		}
		items = append(items, &schedItem{sub: sub, prep: pr})
	}
	s.mu.Lock()
	for _, it := range items {
		s.push(it)
	}
	s.mu.Unlock()

	// Watchers: an external cancel trips the latch; a latch trip wakes
	// every idle group. Both exit on stop.
	stop := make(chan struct{})
	var watchers sync.WaitGroup
	if opts.Parallel.Cancel != nil {
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			select {
			case <-opts.Parallel.Cancel:
				s.latch.Trip(cluster.ErrCanceled)
			case <-stop:
			}
		}()
	}
	watchers.Add(1)
	go func() {
		defer watchers.Done()
		select {
		case <-s.latch.Done():
			s.cond.Broadcast()
		case <-stop:
		}
	}()

	for g := 0; g < s.groups; g++ {
		s.wg.Add(1)
		go func(group int) {
			defer s.wg.Done()
			s.groupLoop(group)
		}(g)
	}
	for sl := 0; sl < slots; sl++ {
		s.wg.Add(1)
		go func(slot int) {
			defer s.wg.Done()
			s.remoteLoop(slot)
		}(sl)
	}
	s.wg.Wait()
	close(stop)
	watchers.Wait()

	if cause := s.latch.Cause(); cause != nil {
		return nil, cause
	}
	collectSupports(res)
	st := s.stats // every goroutine that counted has exited
	res.Sched = &st
	res.PeakConcurrentBytes = s.peakBytes
	return res, nil
}

// push enqueues an item. Caller holds s.mu.
func (s *scheduler) push(it *schedItem) {
	it.seq = s.seq
	s.seq++
	s.pending++
	heap.Push(&s.queue, it)
	s.stats.Enqueued++
	s.stats.MaxQueueDepth = max(s.stats.MaxQueueDepth, len(s.queue))
	s.cond.Broadcast()
}

// count applies one counter update under s.mu, for the sites in runClass
// and adoptOutcome that do not hold it already.
func (s *scheduler) count(update func(st *SchedStats)) {
	s.mu.Lock()
	update(&s.stats)
	s.mu.Unlock()
}

// pop is the one dispatch policy, for node groups and remote dispatchers
// alike: wait for work, then take the heap top — the largest estimate,
// enqueue order breaking ties. It returns nil once the run is aborted or
// drained (every pending item popped by a peer).
func (s *scheduler) pop() *schedItem {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && s.pending > 0 && s.latch.Cause() == nil {
		s.cond.Wait()
	}
	if s.latch.Cause() != nil || len(s.queue) == 0 {
		return nil
	}
	s.stats.Steals++
	return heap.Pop(&s.queue).(*schedItem)
}

// groupLoop is one node group's life: steal the largest queued class,
// enumerate it, repeat until the queue drains or the run aborts.
func (s *scheduler) groupLoop(group int) {
	copts := s.opts.Parallel
	copts.Cancel = s.latch.Done()
	copts.MemGauge = s.memGauge(group)
	for {
		it := s.pop()
		if it == nil {
			return
		}

		s.runClass(it, func(strict bool) error {
			// Clear the group's residency afterwards — belt and braces for
			// error paths where node goroutines never reported their zero.
			defer s.zeroMem(group)
			copts.Core.StrictMemBudget = strict
			return enumerate(it.sub, it.prep, copts, s.N.Cols())
		})

		s.mu.Lock()
		s.pending--
		if s.pending == 0 {
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
}

// runClass drives one popped class to a terminal state — enumerated,
// re-split into two queued children, unresolved, or the run aborted —
// and is the only copy of Algorithm 3's budget policy. attempt runs the
// class once, on a local group or a remote worker, with the given
// memory-budget strictness. It reports false only when attempt lost its
// worker: the class went back on the queue and is still pending.
func (s *scheduler) runClass(it *schedItem, attempt func(strict bool) error) (done bool) {
	sub := it.sub
	// The memory budget is strict only while re-split depth remains: an
	// over-budget surviving set then surfaces as core.ErrMemBudget and
	// refines the class, exactly like a mode-count overflow. At the depth
	// limit the store degrades to spilling instead, so the class still
	// completes (result-identical, just slower).
	deeper := sub.Depth < s.opts.MaxDepth
	strict := s.opts.Parallel.Core.MemBudget > 0 && deeper
	for retry := false; ; retry = true {
		s.count(func(st *SchedStats) {
			s.active++
			st.MaxActive = max(st.MaxActive, s.active)
		})
		start := time.Now()
		err := attempt(strict && !retry)
		s.count(func(st *SchedStats) {
			s.active--
			if err == nil {
				st.Classes = append(st.Classes, SchedClass{
					Label:   classLabel(sub),
					Depth:   sub.Depth,
					Seconds: time.Since(start).Seconds(),
					Pairs:   sub.Pairs,
					EFMs:    len(sub.Supports),
				})
			}
		})
		if err == nil {
			s.progress(sub)
			return true
		}
		if errors.Is(err, ErrWorkerLost) {
			s.requeue(it, errors.Is(err, ErrWorkerTimeout))
			return false
		}
		// Only a blown budget (mode count or strict memory) is a size
		// signal; any other failure (a node crash, a communication
		// timeout, an aborted group) is a fault and aborts the run.
		if !errors.Is(err, core.ErrBudget) {
			s.latch.Trip(fmt.Errorf("dnc: subset %d: %w", sub.ID, err))
			return true
		}
		memTriggered := errors.Is(err, core.ErrMemBudget)
		if deeper && !retry {
			rerr := s.resplitEnqueue(sub)
			if rerr == nil {
				if memTriggered {
					sub.MemResplit = true
					s.count(func(st *SchedStats) { st.MemResplits++ })
				}
				return true
			}
			if !memTriggered || !errors.Is(rerr, errNoRefinement) {
				s.latch.Trip(fmt.Errorf("dnc: subset %d: %w", sub.ID, rerr))
				return true
			}
			// A memory re-split with no reaction left to refine by falls
			// through to the soft retry — spilling beats failing.
		}
		if retry || !memTriggered {
			// Mode budget exhausted at the depth limit (the soft retry can
			// still blow it): report the class unresolved instead of
			// failing the run, so budgeted explorations (the Table IV
			// simulation) degrade gracefully.
			sub.Unresolved = true
			s.count(func(st *SchedStats) { st.Unresolved++ })
			s.progress(sub)
			return true
		}
		// Soft retry: same executor, strictness dropped, so the store
		// spills the class to completion.
	}
}

// remoteLoop is one executor slot's dispatcher: steal the largest queued
// class, run it on the slot's worker, repeat. A lost worker requeues its
// class and — once the slot is confirmed dead — retires this dispatcher;
// the last dispatcher to die with classes outstanding and no local groups
// spawns an emergency local group so the run completes instead of
// deadlocking.
func (s *scheduler) remoteLoop(slot int) {
	for {
		it := s.pop()
		if it == nil {
			return
		}

		done := s.runClass(it, func(strict bool) error {
			out, err := s.remote.Run(slot, s.remoteSpec(it, strict), s.latch.Done())
			if err == nil {
				s.adoptOutcome(it.sub, out)
			}
			return err
		})

		s.mu.Lock()
		if done {
			s.pending--
			if s.pending == 0 {
				s.cond.Broadcast()
			}
		}
		dead := !s.remote.Alive(slot)
		if dead {
			s.aliveSlots--
			if s.aliveSlots == 0 && s.groups == 0 && !s.fallback &&
				s.pending > 0 && s.latch.Cause() == nil {
				s.fallback = true
				s.wg.Add(1) // safe: this goroutine's Done has not run yet
				go func() {
					defer s.wg.Done()
					s.groupLoop(len(s.groupBytes) - 1) // the spare residency row
				}()
			}
		}
		s.mu.Unlock()
		if dead {
			return
		}
	}
}

// remoteSpec builds the wire-independent class description for an item.
func (s *scheduler) remoteSpec(it *schedItem, strict bool) RemoteClass {
	return RemoteClass{
		ID:        it.sub.ID,
		Partition: it.sub.Partition,
		Depth:     it.sub.Depth,
		StrictMem: strict,
		Label:     classLabel(it.sub),
	}
}

// requeue pushes a worker-lost item back with a fresh sequence number
// but WITHOUT touching pending: the item never left the
// enqueued-or-being-worked state, it just changes hands. timeout marks
// the per-class-deadline flavor of the loss.
func (s *scheduler) requeue(it *schedItem, timeout bool) {
	s.mu.Lock()
	s.stats.RemoteRequeues++
	if timeout {
		s.stats.RemoteTimeouts++
	}
	it.seq = s.seq
	s.seq++
	heap.Push(&s.queue, it)
	s.stats.MaxQueueDepth = max(s.stats.MaxQueueDepth, len(s.queue))
	s.cond.Broadcast()
	s.mu.Unlock()
}

// adoptOutcome folds a completed remote class into its subproblem shell.
func (s *scheduler) adoptOutcome(sub *Subproblem, out *ClassOutcome) {
	sub.Supports = out.Supports
	sub.Pairs = out.Pairs
	sub.PeakNodeBytes = out.PeakNodeBytes
	if out.Skipped {
		// Unreachable for dispatched classes (the coordinator prepared
		// them before enqueueing), but honor a worker's verdict anyway.
		sub.Skipped = true
	}
	s.count(func(st *SchedStats) { st.RemoteClasses++ })
}

// resplitEnqueue converts a budget overflow into two new queue items:
// the partition gains one reaction and the class refines into its
// zero-flux and non-zero-flux children. The children are appended to
// sub.Children in bit order by this single owning group, so the tree
// shape cannot depend on scheduling.
func (s *scheduler) resplitEnqueue(sub *Subproblem) error {
	extra, err := nextPartitionReaction(s.N, s.rev, sub.Partition)
	if err != nil {
		return err
	}
	wider := append(append([]int(nil), sub.Partition...), extra)
	var items []*schedItem
	for bit := uint64(0); bit < 2; bit++ {
		id := sub.ID | bit<<uint(len(sub.Partition))
		child := &Subproblem{ID: id, Partition: append([]int(nil), wider...), Depth: sub.Depth + 1}
		sub.Children = append(sub.Children, child)
		pr := prepare(s.N, s.rev, wider, id)
		if pr == nil {
			child.Skipped = true
			continue
		}
		items = append(items, &schedItem{sub: child, prep: pr})
	}
	s.mu.Lock()
	s.stats.Resplits++
	for _, it := range items {
		s.push(it)
	}
	s.mu.Unlock()
	return nil
}

// progress invokes the user callback under the serialization mutex.
func (s *scheduler) progress(sub *Subproblem) {
	if s.opts.Progress == nil {
		return
	}
	s.progressMu.Lock()
	defer s.progressMu.Unlock()
	s.opts.Progress(sub)
}

// memGauge returns the MemGauge closure for one group: it maintains the
// group's per-rank resident payloads and the cross-group running total's
// high-water mark.
func (s *scheduler) memGauge(group int) func(rank int, bytes int64) {
	return func(rank int, bytes int64) {
		s.memMu.Lock()
		defer s.memMu.Unlock()
		gb := s.groupBytes[group]
		if rank < 0 || rank >= len(gb) {
			return
		}
		s.totalBytes += bytes - gb[rank]
		gb[rank] = bytes
		if s.totalBytes > s.peakBytes {
			s.peakBytes = s.totalBytes
		}
	}
}

// zeroMem clears a group's residency after its enumeration returns.
func (s *scheduler) zeroMem(group int) {
	s.memMu.Lock()
	defer s.memMu.Unlock()
	for rank, b := range s.groupBytes[group] {
		s.totalBytes -= b
		s.groupBytes[group][rank] = 0
	}
}

// classLabel renders a class's scheduler label: the non-zero-flux bit
// pattern over its partition, most-significant partition reaction first.
func classLabel(sub *Subproblem) string {
	return fmt.Sprintf("%0*b", len(sub.Partition), sub.ID)
}
