// The Algorithm 3 driver: every divide-and-conquer run goes through this
// scheduler, at one node group by default.
//
// One pool of runners pulls classes from a shared work queue — a FIFO of
// class coordinates whose root classes are pushed dearest first
// (rootOrder). A runner is one slot of an executor: a local node group
// is a slot of localExec, a remote worker slot one of Options.Remote,
// and both run the same loop, serve, which hands each popped class to
// its executor and converts budget-triggered re-splits into new queue
// items. Nothing is prepared ahead of a pop: a class is prepared once,
// by whoever runs it, and a class found infeasible there comes back
// Skipped. The executor also owns the class's clock; the scheduler
// keeps none. One policy function, runClass, owns the budget / re-split
// / soft-retry / unresolved state machine for every slot. The result is
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
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

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
	// Seconds is the class's wall time where it ran, as whoever ran it
	// measured it (ClassOutcome.Seconds): prepare plus enumeration on a
	// local group, and on a remote worker the worker's own clock, from
	// taking its run slot to its reply, without the wait behind the
	// worker's earlier classes.
	Seconds float64 `json:"seconds"`
	// Worker is where the class ran: a worker's address, or "local".
	Worker string `json:"worker"`
	// CallSeconds is the runner's executor call around the class
	// (ClassOutcome.CallSeconds): Seconds on a local group, and on a
	// remote worker the coordinator's send-to-reply wall, so
	// CallSeconds − Seconds is the link plus any wait behind another
	// job's class on the worker.
	CallSeconds float64 `json:"call_seconds"`
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
	// Enqueued counts classes pushed onto the queue: the initial
	// 2^qsub classes plus two per re-split, infeasible ones included.
	Enqueued int64 `json:"enqueued"`
	// Steals counts items pulled off the queue by a node group or a
	// remote slot.
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
	// and remote slots.
	MaxActive int `json:"max_active"`
	// Classes lists per-class wall times in completion order (Skipped
	// classes are absent).
	Classes []SchedClass `json:"classes,omitempty"`
}

// scheduler carries the shared state of one run.
type scheduler struct {
	N    *ratmat.Matrix
	rev  []bool
	opts Options
	// local is the node groups as an executor, one slot per group (none
	// under a pure-remote run).
	local *localExec

	latch *cluster.Latch
	wg    sync.WaitGroup // one per runner goroutine

	// mu guards the queue and, because nearly every counter moves with a
	// queue operation, the run's counters too.
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*Subproblem // FIFO of class shells waiting to run
	pending int           // classes enqueued or being worked; 0 + empty queue = done
	stats   SchedStats
	active  int // classes being enumerated right now (MaxActive's gauge)
	// aliveSlots counts remote slots still usable. The last one to die
	// with no local group carries on as a local slot (serve), so the job
	// finishes instead of deadlocking.
	aliveSlots int

	// progressMu serializes the user's Progress callback across groups.
	progressMu sync.Mutex

	// Live residency across every local group, fed by the deltas of
	// parallel.Options.MemGauge: the running total and its high-water
	// mark, Result.PeakConcurrentBytes.
	memMu      sync.Mutex
	totalBytes int64
	peakBytes  int64
}

// runScheduled is the body of Run once the partition is fixed.
func runScheduled(N *ratmat.Matrix, rev []bool, partition []int, opts Options) (*Result, error) {
	s := &scheduler{N: N, rev: rev, opts: opts, latch: cluster.NewLatch()}
	s.cond = sync.NewCond(&s.mu)
	popts := opts.Parallel
	popts.MemGauge = s.resident
	s.local = &localExec{N: N, rev: rev, popts: popts, groups: max(opts.GroupConcurrency, 0)}
	runners := []RemoteExecutor{s.local}
	if opts.Remote != nil {
		runners = append(runners, opts.Remote)
		s.aliveSlots = opts.Remote.Slots()
	}
	if s.local.groups == 0 && s.aliveSlots == 0 {
		// Nobody else to serve the queue (the GroupConcurrency 0 default,
		// or a remote pool with no slots): one local group.
		s.local.groups = 1
	}

	// Create every root class shell in ID order up front: the tree's
	// shape is fixed before any group runs, so Result.Subproblems cannot
	// depend on scheduling. Only the queue sees them in rootOrder.
	res := &Result{Partition: partition}
	for id := uint64(0); id < 1<<uint(len(partition)); id++ {
		sub := &Subproblem{ID: id, Partition: append([]int(nil), partition...)}
		res.Subproblems = append(res.Subproblems, sub)
	}
	s.mu.Lock()
	for _, sub := range rootOrder(res.Subproblems) {
		s.push(sub)
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

	for _, e := range runners {
		for slot := range e.Slots() {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serve(e, slot)
			}()
		}
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

// rootOrder returns the root classes in the order they are pushed: most
// must-be-non-zero partition reactions first (the popcount of the class
// ID), ties by class ID descending. prepare drops every must-be-zero
// reaction from the class stoichiometry, so each must-be-non-zero one
// leaves the class a column and (generically) a kernel dimension more to
// enumerate; measured class cost follows the count (DESIGN §12). With a
// fixed pool the class that starts last sets the makespan, so the
// dearest starts first. The key reads only the class coordinate: nothing
// is prepared to order the queue.
func rootOrder(roots []*Subproblem) []*Subproblem {
	order := slices.Clone(roots)
	slices.SortFunc(order, func(a, b *Subproblem) int {
		return cmp.Or(
			cmp.Compare(bits.OnesCount64(b.ID), bits.OnesCount64(a.ID)),
			cmp.Compare(b.ID, a.ID))
	})
	return order
}

// push enqueues a class at the tail. Caller holds s.mu.
func (s *scheduler) push(sub *Subproblem) {
	s.pending++
	s.queue = append(s.queue, sub)
	s.stats.Enqueued++
	s.stats.MaxQueueDepth = max(s.stats.MaxQueueDepth, len(s.queue))
	s.cond.Broadcast()
}

// count applies one counter update under s.mu, for the sites in runClass
// that do not hold it already.
func (s *scheduler) count(update func(st *SchedStats)) {
	s.mu.Lock()
	update(&s.stats)
	s.mu.Unlock()
}

// pop is the one dispatch policy, for node groups and remote slots
// alike: wait for work, then take the queue's head — the earliest
// enqueued class. It returns nil once the run is aborted or drained
// (every pending class popped by a peer).
func (s *scheduler) pop() *Subproblem {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && s.pending > 0 && s.latch.Cause() == nil {
		s.cond.Wait()
	}
	if s.latch.Cause() != nil || len(s.queue) == 0 {
		return nil
	}
	s.stats.Steals++
	sub := s.queue[0]
	s.queue[0] = nil
	s.queue = s.queue[1:]
	return sub
}

// serve is one runner's life, a local node group's and a remote slot's
// alike: pop the queue's head, drive it through runClass on the slot,
// repeat until the queue drains or the run aborts. A remote slot found
// dead after a class (its class, if lost, is back on the queue) retires
// — except the last one when there is no local group: it carries on as
// a local slot, so a run whose whole fleet died still finishes instead
// of deadlocking.
func (s *scheduler) serve(e RemoteExecutor, slot int) {
	for {
		sub := s.pop()
		if sub == nil {
			return
		}
		done := s.runClass(e, slot, sub)

		s.mu.Lock()
		if done {
			s.pending--
			if s.pending == 0 {
				s.cond.Broadcast()
			}
		}
		if !e.Alive(slot) {
			s.aliveSlots--
			if s.aliveSlots > 0 || s.local.groups > 0 {
				s.mu.Unlock()
				return
			}
			e, slot = s.local, 0
		}
		s.mu.Unlock()
	}
}

// runClass drives one popped class to a terminal state — enumerated,
// skipped, re-split into two queued children, unresolved, or the run
// aborted — and is the only copy of Algorithm 3's budget policy. Each
// attempt runs the class once on the executor's slot with the given
// memory-budget strictness; its outcome lands through adoptOutcome. It
// reports false only when the attempt lost its worker: the class went
// back on the queue and is still pending.
func (s *scheduler) runClass(e RemoteExecutor, slot int, sub *Subproblem) (done bool) {
	c := RemoteClass{ID: sub.ID, Partition: sub.Partition, Depth: sub.Depth, Label: classLabel(sub)}
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
		c.StrictMem = strict && !retry
		out, err := e.Run(slot, c, s.latch.Done())
		if err == nil {
			adoptOutcome(sub, out)
		}
		s.count(func(st *SchedStats) {
			s.active--
			if err != nil {
				return
			}
			if e != s.local {
				st.RemoteClasses++
			}
			if !sub.Skipped {
				st.Classes = append(st.Classes, SchedClass{
					Label:       c.Label,
					Depth:       sub.Depth,
					Seconds:     out.Seconds,
					Worker:      out.Worker,
					CallSeconds: out.CallSeconds,
					Pairs:       sub.Pairs,
					EFMs:        len(sub.Supports),
				})
			}
		})
		if err == nil {
			s.progress(sub)
			return true
		}
		if errors.Is(err, ErrWorkerLost) {
			s.requeue(sub, errors.Is(err, ErrWorkerTimeout))
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
		// Soft retry: same slot, strictness dropped, so the store spills
		// the class to completion.
	}
}

// requeue pushes a worker-lost class back at the tail but WITHOUT
// touching pending: the class never left the enqueued-or-being-worked
// state, it just changes hands. timeout marks the per-class-deadline
// flavor of the loss.
func (s *scheduler) requeue(sub *Subproblem, timeout bool) {
	s.mu.Lock()
	s.stats.RemoteRequeues++
	if timeout {
		s.stats.RemoteTimeouts++
	}
	s.queue = append(s.queue, sub)
	s.stats.MaxQueueDepth = max(s.stats.MaxQueueDepth, len(s.queue))
	s.cond.Broadcast()
	s.mu.Unlock()
}

// adoptOutcome folds a completed class, run locally or remotely, into its
// subproblem shell.
func adoptOutcome(sub *Subproblem, out *ClassOutcome) {
	sub.Supports = out.Supports
	sub.Pairs = out.Pairs
	sub.PeakNodeBytes = out.PeakNodeBytes
	sub.Phases = out.Phases
	sub.Store = out.Store
	sub.Skipped = out.Skipped
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
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Resplits++
	for bit := uint64(0); bit < 2; bit++ {
		id := sub.ID | bit<<uint(len(sub.Partition))
		child := &Subproblem{ID: id, Partition: append([]int(nil), wider...), Depth: sub.Depth + 1}
		sub.Children = append(sub.Children, child)
		s.push(child)
	}
	return nil
}

// progress invokes the user callback under the serialization mutex. A
// Skipped class is silent.
func (s *scheduler) progress(sub *Subproblem) {
	if s.opts.Progress == nil || sub.Skipped {
		return
	}
	s.progressMu.Lock()
	defer s.progressMu.Unlock()
	s.opts.Progress(sub)
}

// resident is every local group's parallel.Options.MemGauge: it keeps
// the running total of the residency deltas and its high-water mark.
func (s *scheduler) resident(delta int64) {
	s.memMu.Lock()
	s.totalBytes += delta
	s.peakBytes = max(s.peakBytes, s.totalBytes)
	s.memMu.Unlock()
}

// classLabel renders a class's scheduler label: the non-zero-flux bit
// pattern over its partition, most-significant partition reaction first.
func classLabel(sub *Subproblem) string {
	return fmt.Sprintf("%0*b", len(sub.Partition), sub.ID)
}
