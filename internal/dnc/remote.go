// Remote class execution: the seam between the subproblem scheduler and
// a coordinator/worker deployment. The scheduler stays the single owner
// of the queue, the subproblem tree and the re-split policy; a
// RemoteExecutor only answers "run this class, tell me what came out".
// Worker loss is a scheduling event (requeue), not a result.
package dnc

import (
	"errors"
	"fmt"

	"elmocomp/internal/bitset"
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

// ClassOutcome is what a completed remote class reports back: the
// class's canonical supports over the full input column space plus the
// per-class counters the subproblem tree records. Budget overflows are
// NOT outcomes — they surface as errors wrapping core.ErrBudget so the
// scheduler applies its usual re-split policy.
type ClassOutcome struct {
	Supports      []bitset.Set
	Pairs         int64
	PeakNodeBytes int64
	// Skipped marks a class the worker proved infeasible without
	// enumerating (trivial kernel). Determinism guard: prepare() is a
	// pure function of the class inputs, so the coordinator — which
	// already prepared the class before enqueueing it — never actually
	// receives this for a class it dispatched.
	Skipped bool
}

// RemoteExecutor runs classes on remote workers for the scheduler.
// Implementations are expected to be connection pools: Slots() fixed for
// the run, one in-flight class per slot, Run blocking until the class
// completes, the cancel channel closes, or the slot's worker is lost. A
// pool may expose several slots per worker connection (in-flight
// credit): the scheduler then runs that many dispatchers against one
// link, prefetching the next class while the worker computes.
type RemoteExecutor interface {
	// Slots returns the number of concurrent class dispatchers to run;
	// the scheduler starts one goroutine per slot.
	Slots() int
	// Alive reports whether the slot's worker is still usable. A slot
	// whose Run returned ErrWorkerLost and whose Alive is false retires
	// its dispatcher for the rest of the run.
	Alive(slot int) bool
	// Run executes the class on the slot's worker. Errors wrapping
	// core.ErrBudget report the class itself overflowing (re-split
	// signal); errors wrapping ErrWorkerLost report the worker failing
	// (requeue signal); anything else is a fault that aborts the run.
	Run(slot int, c RemoteClass, cancel <-chan struct{}) (*ClassOutcome, error)
}

// ExecClass runs one divide-and-conquer class to completion in-process:
// the worker side of a coordinator/worker deployment, and the same
// prepare→enumerate path the local scheduler uses, so a class's supports
// are byte-identical wherever it runs. N and rev describe the REDUCED
// network (reduction is deterministic, so coordinator and workers agree
// on column indices). Budget errors pass through unchanged for the
// coordinator's re-split policy to interpret.
func ExecClass(N *ratmat.Matrix, rev []bool, partition []int, id uint64, popts parallel.Options) (*ClassOutcome, error) {
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
	pr := prepare(N, rev, partition, id)
	if pr == nil {
		return &ClassOutcome{Skipped: true}, nil
	}
	sub := &Subproblem{ID: id, Partition: append([]int(nil), partition...)}
	if err := enumerate(sub, pr, popts, N.Cols()); err != nil {
		return nil, err
	}
	return &ClassOutcome{
		Supports:      sub.Supports,
		Pairs:         sub.Pairs,
		PeakNodeBytes: sub.PeakNodeBytes,
	}, nil
}
