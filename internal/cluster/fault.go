package cluster

import (
	"fmt"
	"sync/atomic"
	"time"
)

// DropRule silently drops the Nth message (1-based) sent on the
// directed link From→To: the send reports success and the bytes never
// arrive — a lossy fabric's view of the world. Paired with a group
// Options.Timeout this is the deterministic way to exercise the
// bounded-time abort path.
type DropRule struct {
	From, To, Nth int
}

// FaultPlan describes deterministic failures for WrapFaulty to inject.
// The zero value injects nothing.
type FaultPlan struct {
	// FailRank selects the rank the crash-point fields below apply to.
	FailRank int
	// FailCollective, when > 0, fails rank FailRank's FailCollective-th
	// Allgather with ErrInjected before any of its traffic moves — "node
	// dies at iteration K" of Algorithm 2's Communicate&Merge loop.
	FailCollective int
	// FailOp, when > 0, instead fails rank FailRank's FailOp-th
	// primitive operation (each send and each recv counts one) — a
	// mid-collective crash that leaves peers partially delivered.
	FailOp int
	// Drop lists messages to drop on send.
	Drop []DropRule
	// Delay postpones delivery of every message received on a link
	// matching DelayFrom→DelayTo (-1 matches any rank) by Delay — a
	// slow-link simulation.
	Delay     time.Duration
	DelayFrom int
	DelayTo   int
}

// WrapFaulty wraps every communicator of a group in a fault-injecting
// layer driven by plan. The wrapped collectives run over the wrapped
// send/recv, so crash points, drops and delays apply to collective
// traffic too; counters, Abort and Close delegate to the underlying
// transport. Wrapping is free of policy: injected failures do not abort
// the group by themselves — propagation is the driver's job, exactly as
// for organic failures.
func WrapFaulty(comms []Comm, plan FaultPlan) []Comm {
	out := make([]Comm, len(comms))
	for i, c := range comms {
		out[i] = &faultComm{Comm: c, plan: plan, sent: make([]int64, c.Size())}
	}
	return out
}

type faultComm struct {
	Comm
	plan        FaultPlan
	ops         atomic.Int64
	collectives atomic.Int64
	sent        []int64 // per-destination send counts; this rank's goroutine only
}

func (f *faultComm) collectiveTimeout() time.Duration { return timeoutOf(f.Comm) }

// failOp charges one primitive operation against the plan's FailOp
// crash point and returns the injected error when it is reached.
func (f *faultComm) failOp() error {
	if f.plan.FailOp <= 0 || f.Rank() != f.plan.FailRank {
		return nil
	}
	if f.ops.Add(1) == int64(f.plan.FailOp) {
		return fmt.Errorf("%w: rank %d operation %d", ErrInjected, f.plan.FailRank, f.plan.FailOp)
	}
	return nil
}

func (f *faultComm) send(to int, msg []byte) error {
	if err := f.failOp(); err != nil {
		return err
	}
	if to >= 0 && to < len(f.sent) {
		f.sent[to]++
		for _, d := range f.plan.Drop {
			if d.From == f.Rank() && d.To == to && int64(d.Nth) == f.sent[to] {
				return nil // dropped: reported delivered, never arrives
			}
		}
	}
	return f.Comm.send(to, msg)
}

func (f *faultComm) recv(from int) ([]byte, error) {
	if err := f.failOp(); err != nil {
		return nil, err
	}
	msg, err := f.Comm.recv(from)
	if err != nil {
		return nil, err
	}
	if d := f.plan.Delay; d > 0 &&
		(f.plan.DelayFrom < 0 || f.plan.DelayFrom == from) &&
		(f.plan.DelayTo < 0 || f.plan.DelayTo == f.Rank()) {
		time.Sleep(d)
	}
	return msg, nil
}

func (f *faultComm) Allgather(local []byte) ([][]byte, error) {
	if f.plan.FailCollective > 0 && f.Rank() == f.plan.FailRank &&
		f.collectives.Add(1) == int64(f.plan.FailCollective) {
		return nil, fmt.Errorf("%w: rank %d collective %d", ErrInjected, f.plan.FailRank, f.plan.FailCollective)
	}
	return allgather(f, timeoutOf(f.Comm), local)
}
