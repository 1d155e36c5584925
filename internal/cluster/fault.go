package cluster

import (
	"fmt"
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

// FaultPlan describes deterministic failures for a group's endpoints
// to inject (Options.Fault), on either wire. Crash points, drops and
// delays apply to the collective's own sends and receives. Injection is
// mechanism only: an injected failure does not abort the group by
// itself — propagation is the driver's job, exactly as for organic
// failures. The zero value injects nothing.
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

// faultState is one endpoint's progress through its group's plan; only
// the endpoint's own goroutine touches it.
type faultState struct {
	ops, collectives int
	sent             []int // sends per destination, for Drop
}

// injectOp charges one primitive operation against the plan's FailOp
// crash point and returns the injected error when it is reached.
func (e *Endpoint) injectOp() error {
	f := e.g.opts.Fault
	if f == nil || f.FailOp <= 0 || e.rank != f.FailRank {
		return nil
	}
	if e.faults.ops++; e.faults.ops == f.FailOp {
		return fmt.Errorf("%w: rank %d operation %d", ErrInjected, f.FailRank, f.FailOp)
	}
	return nil
}

// injectCollective charges one Allgather against the plan's
// FailCollective crash point.
func (e *Endpoint) injectCollective() error {
	f := e.g.opts.Fault
	if f == nil || f.FailCollective <= 0 || e.rank != f.FailRank {
		return nil
	}
	if e.faults.collectives++; e.faults.collectives == f.FailCollective {
		return fmt.Errorf("%w: rank %d collective %d", ErrInjected, f.FailRank, f.FailCollective)
	}
	return nil
}

// dropped counts a send to rank to and reports whether the plan drops
// it.
func (e *Endpoint) dropped(to int) bool {
	f := e.g.opts.Fault
	if f == nil || len(f.Drop) == 0 {
		return false
	}
	if e.faults.sent == nil {
		e.faults.sent = make([]int, e.g.size)
	}
	e.faults.sent[to]++
	for _, d := range f.Drop {
		if d.From == e.rank && d.To == to && d.Nth == e.faults.sent[to] {
			return true
		}
	}
	return false
}

// delay holds a message just received from rank from for the plan's
// Delay when the link matches.
func (e *Endpoint) delay(from int) {
	f := e.g.opts.Fault
	if f != nil && f.Delay > 0 &&
		(f.DelayFrom < 0 || f.DelayFrom == from) &&
		(f.DelayTo < 0 || f.DelayTo == e.rank) {
		time.Sleep(f.Delay)
	}
}
