package stats

import (
	"fmt"
	"sync"
)

// SchedClass is one completed work unit of the divide-and-conquer
// subproblem scheduler: a zero/non-zero class (or a re-split child)
// with its measured wall time.
type SchedClass struct {
	// Label identifies the class: the zero-padded non-zero-flux bit
	// pattern over the partition, e.g. "011" (depth suffix "+d2" for
	// re-split children below the root partition).
	Label string
	// Depth is the re-split depth (0 for the initial classes).
	Depth int
	// Seconds is the class's enumeration wall time within its group.
	Seconds float64
	// Pairs is the class's candidate-mode count.
	Pairs int64
	// EFMs is the class's elementary-mode count.
	EFMs int
}

// SchedStats aggregates the counters of one divide-and-conquer
// scheduler run. Counter totals are deterministic for a given problem
// and budget (the same classes are enqueued, stolen and re-split at
// every concurrency level); MaxQueueDepth, MaxActive and the order of
// Classes depend on scheduling and are diagnostics, not part of the
// byte-identical result contract.
type SchedStats struct {
	// Enqueued counts work items pushed onto the queue: the initial
	// 2^qsub classes plus two per re-split.
	Enqueued int64
	// Steals counts items pulled off the queue by a node group.
	Steals int64
	// Resplits counts budget-triggered re-splits converted into new
	// queue items.
	Resplits int64
	// MemResplits counts the subset of Resplits triggered by the memory
	// budget (a flat mode set too large for core.Options.MemBudget)
	// rather than the intermediate mode-count budget.
	MemResplits int64
	// Unresolved counts classes abandoned at the re-split depth limit.
	Unresolved int64
	// RemoteClasses counts classes completed on a remote worker
	// (coordinator/worker runs only; a class re-run locally after every
	// worker died is not counted here).
	RemoteClasses int64
	// RemoteSteals counts classes a remote dispatcher pulled off the
	// queue against the consistent-hash affinity — work-stealing across
	// workers when the affine dispatcher was busy.
	RemoteSteals int64
	// RemoteRequeues counts classes pushed back onto the queue after the
	// worker running them was lost (crash, link failure, or timeout).
	// Like MemResplits, a resilience counter: nonzero means the run
	// survived a fault, not that it failed.
	RemoteRequeues int64
	// RemoteTimeouts counts the subset of RemoteRequeues caused by a
	// class exceeding the coordinator's per-class deadline on a wedged
	// worker.
	RemoteTimeouts int64
	// MaxQueueDepth is the largest queue length observed at any
	// enqueue or steal.
	MaxQueueDepth int
	// MaxActive is the peak number of concurrently enumerating groups.
	MaxActive int
	// Classes lists per-class wall times in completion order.
	Classes []SchedClass
}

// Table renders the counters in the repo's fixed-width table style.
func (s *SchedStats) Table() *Table {
	tb := NewTable("scheduler: per-class wall time (completion order)",
		"class", "depth", "wall", "candidates", "EFMs")
	for _, c := range s.Classes {
		tb.AddRow(c.Label, c.Depth, Seconds(c.Seconds), Count(c.Pairs), Count(int64(c.EFMs)))
	}
	tb.AddNote("queue: %d enqueued, %d steals, %d re-splits (%d by memory), %d unresolved; peak depth %d, peak active groups %d",
		s.Enqueued, s.Steals, s.Resplits, s.MemResplits, s.Unresolved, s.MaxQueueDepth, s.MaxActive)
	if s.RemoteClasses > 0 || s.RemoteRequeues > 0 {
		tb.AddNote("remote: %d classes on workers (%d stolen off-affinity), %d requeues after worker loss (%d by timeout)",
			s.RemoteClasses, s.RemoteSteals, s.RemoteRequeues, s.RemoteTimeouts)
	}
	return tb
}

// String renders a one-line summary.
func (s *SchedStats) String() string {
	return fmt.Sprintf("enqueued=%d steals=%d resplits=%d memresplits=%d unresolved=%d maxqueue=%d maxactive=%d classes=%d",
		s.Enqueued, s.Steals, s.Resplits, s.MemResplits, s.Unresolved, s.MaxQueueDepth, s.MaxActive, len(s.Classes))
}

// SchedRecorder is the concurrency-safe accumulator behind SchedStats.
// Every method may be called from any group goroutine; Snapshot returns
// a copy safe to retain after the run.
type SchedRecorder struct {
	mu     sync.Mutex
	s      SchedStats
	active int
}

// NewSchedRecorder returns an empty recorder.
func NewSchedRecorder() *SchedRecorder { return &SchedRecorder{} }

// Enqueue records one item pushed with the resulting queue depth.
func (r *SchedRecorder) Enqueue(queueDepth int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.Enqueued++
	if queueDepth > r.s.MaxQueueDepth {
		r.s.MaxQueueDepth = queueDepth
	}
}

// Steal records one item pulled by a group, with the depth before the
// pull.
func (r *SchedRecorder) Steal(queueDepthBefore int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.Steals++
	if queueDepthBefore > r.s.MaxQueueDepth {
		r.s.MaxQueueDepth = queueDepthBefore
	}
}

// Resplit records one budget-triggered re-split.
func (r *SchedRecorder) Resplit() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.Resplits++
}

// MemResplit marks the most recent re-split as memory-triggered.
func (r *SchedRecorder) MemResplit() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.MemResplits++
}

// UnresolvedClass records a class abandoned at the depth limit.
func (r *SchedRecorder) UnresolvedClass() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.Unresolved++
}

// RemoteClass records a class completed on a remote worker; stolen marks
// a pull that ignored the consistent-hash affinity.
func (r *SchedRecorder) RemoteClass(stolen bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.RemoteClasses++
	if stolen {
		r.s.RemoteSteals++
	}
}

// RemoteRequeue records a class pushed back after its worker was lost;
// timeout marks the per-class-deadline flavor of the loss.
func (r *SchedRecorder) RemoteRequeue(timeout bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.RemoteRequeues++
	if timeout {
		r.s.RemoteTimeouts++
	}
}

// BeginClass marks a group entering enumeration (peak-active tracking).
func (r *SchedRecorder) BeginClass() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active++
	if r.active > r.s.MaxActive {
		r.s.MaxActive = r.active
	}
}

// AbortClass marks a group leaving enumeration without a completed
// class: a budget overflow about to re-split, an unresolved abandon, or
// a genuine fault. Counterpart of BeginClass when EndClass doesn't run.
func (r *SchedRecorder) AbortClass() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active--
}

// EndClass marks a group leaving enumeration and records the class.
func (r *SchedRecorder) EndClass(c SchedClass) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active--
	r.s.Classes = append(r.s.Classes, c)
}

// Snapshot copies the counters accumulated so far.
func (r *SchedRecorder) Snapshot() *SchedStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.s
	out.Classes = append([]SchedClass(nil), r.s.Classes...)
	return &out
}
