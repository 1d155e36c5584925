// Class execution: the seam between the subproblem scheduler and
// whatever runs a class — a local node group (localExec) or a worker of a
// coordinator/worker deployment. The scheduler stays the single owner of
// the queue, the subproblem tree and the re-split policy; a
// RemoteExecutor only answers "run this class, tell me what came out".
// Worker loss is a scheduling event (requeue), not a result.
package dnc

import (
	"errors"
	"fmt"
	"time"

	"elmocomp/internal/bitset"
	"elmocomp/internal/core"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/parallel"
	"elmocomp/internal/ratmat"
)

// ErrWorkerLost marks a class whose remote worker died mid-flight: the
// connection dropped, the dial failed, or the response never decoded.
// The scheduler maps it to a requeue — the class reruns elsewhere — so
// an executor returning it must guarantee the class produced no effect
// the rerun would double-count (workers only ever send results back;
// they mutate nothing).
var ErrWorkerLost = errors.New("dnc: remote worker lost")

// ErrWorkerTimeout is the deadline flavor of ErrWorkerLost: the worker
// held the class past the coordinator's per-class budget. It wraps
// ErrWorkerLost so one errors.Is covers both requeue causes.
var ErrWorkerTimeout = fmt.Errorf("%w (class deadline exceeded)", ErrWorkerLost)

// RemoteClass is the scheduler's wire-independent description of one
// queued class: exactly the inputs prepare() derives a subproblem from,
// plus the execution details the owning scheduler decided (strictness,
// label) so every worker applies the same policy the local driver would.
type RemoteClass struct {
	ID        uint64
	Partition []int
	Depth     int
	// StrictMem tells the worker to run with Core.StrictMemBudget set:
	// re-split depth remains, so an over-budget class must fail fast
	// with core.ErrMemBudget instead of spilling.
	StrictMem bool
	// Label is the class's scheduler label ("011"), for worker logs.
	Label string
}

// ClassOutcome is what a completed class reports back, wherever it ran:
// the class's canonical supports over the full input column space plus
// the per-class counters the subproblem tree records. Store is filled
// in-process only; the wire drops it. Budget overflows are NOT outcomes
// — they surface as errors wrapping core.ErrBudget so the scheduler
// applies its usual re-split policy.
type ClassOutcome struct {
	Supports      []bitset.Set
	Pairs         int64
	PeakNodeBytes int64
	// Phases are ExecClass's phase times, wherever it ran: a remote
	// worker sends them back with the result.
	Phases parallel.PhaseTimes
	Store  core.StoreStats
	// Seconds is the class's wall time where it ran, measured by
	// whoever ran it and never by the scheduler: ExecClass's own wall in
	// process, and for a remote class the worker's own clock, from
	// taking its run slot to its reply, not the wait behind the worker's
	// earlier classes.
	Seconds float64
	// Worker names where the class ran: a worker's address, or "local".
	Worker string
	// CallSeconds is the executor's Run call around the class: Seconds
	// in process, and for a remote class the coordinator's wall from
	// sending it to reading its reply, so the link and any wait behind
	// another job's class on the worker are CallSeconds − Seconds.
	CallSeconds float64
	// Skipped marks a class found infeasible where it runs (prepare
	// admits no kernel), without enumerating.
	Skipped bool
}

// RemoteExecutor runs classes for the scheduler. The local node groups
// are one (localExec); a coordinator's worker pool is the other:
// Slots() fixed for the run, one in-flight class per slot, Run blocking
// until the class completes, the cancel channel closes, or the slot's
// worker is lost. A pool exposes one slot per worker, so a class leaves
// the queue only when a worker can start it.
type RemoteExecutor interface {
	// Slots returns the number of concurrent class runners; the
	// scheduler starts one goroutine per slot.
	Slots() int
	// Alive reports whether the slot's worker is still usable. A slot
	// whose Alive is false after a class retires its runner for the rest
	// of the run.
	Alive(slot int) bool
	// Run executes the class on the slot's worker. Errors wrapping
	// core.ErrBudget report the class itself overflowing (re-split
	// signal); errors wrapping ErrWorkerLost report the worker failing
	// (requeue signal); anything else is a fault that aborts the run.
	Run(slot int, c RemoteClass, cancel <-chan struct{}) (*ClassOutcome, error)
}

// ExecClass runs one divide-and-conquer class to completion in-process:
// prepare, then enumerate, timed from the first to the last. It is the
// one class body — every local node group and every remote worker runs a
// class through it — so a class's supports are byte-identical wherever it
// runs and each class is prepared once, by whoever popped it. N and rev
// describe the REDUCED network (reduction is deterministic, so
// coordinator and workers agree on column indices). Budget errors pass
// through unchanged for the scheduler's re-split policy to interpret.
func ExecClass(N *ratmat.Matrix, rev []bool, partition []int, id uint64, popts parallel.Options) (out *ClassOutcome, err error) {
	start := time.Now()
	defer func() {
		if out != nil {
			out.Seconds = time.Since(start).Seconds()
		}
	}()
	if popts.Core.LastRow != 0 {
		return nil, fmt.Errorf("dnc: Parallel.Core.LastRow is managed by the driver")
	}
	for _, j := range partition {
		if j < 0 || j >= N.Cols() {
			return nil, fmt.Errorf("dnc: partition column %d out of range", j)
		}
	}
	if id >= 1<<uint(len(partition)) {
		return nil, fmt.Errorf("dnc: class %d out of range for a %d-reaction partition", id, len(partition))
	}
	pr, err := prepare(N, rev, partition, id)
	if errors.Is(err, nullspace.ErrTrivialKernel) {
		return &ClassOutcome{Skipped: true}, nil
	}
	if err != nil {
		return nil, err
	}
	return enumerate(pr, popts, N.Cols())
}

// localExec is the local node groups as an executor: one slot per group,
// never lost, each class run through ExecClass under the options every
// group shares (the scheduler's residency gauge included).
type localExec struct {
	N      *ratmat.Matrix
	rev    []bool
	popts  parallel.Options
	groups int
}

func (e *localExec) Slots() int { return e.groups }

func (e *localExec) Alive(int) bool { return true }

func (e *localExec) Run(_ int, c RemoteClass, cancel <-chan struct{}) (*ClassOutcome, error) {
	popts := e.popts
	popts.Cancel = cancel
	popts.Core.StrictMemBudget = c.StrictMem
	out, err := ExecClass(e.N, e.rev, c.Partition, c.ID, popts)
	if out != nil {
		out.Worker, out.CallSeconds = "local", out.Seconds
	}
	return out, err
}
