package cluster

import (
	"errors"
	"sync"
)

// The failure vocabulary of the substrate. A wedged collective is the
// worst failure mode a replicated-state algorithm can have — one node
// erroring out of Algorithm 2's Communicate&Merge used to leave every
// peer blocked in a receive forever — so the group carries an abort latch:
// any node's error, an expired deadline, or an external cancel trips
// it, and every pending and future operation on every node fails
// promptly with an error matching ErrAborted.
var (
	// ErrAborted marks operations failed by a group-wide abort. Use
	// errors.Is(err, ErrAborted) to tell fail-fast teardown apart from a
	// node's own root-cause failure; the abort cause (ErrTimeout,
	// ErrCanceled, or the failing node's error) is wrapped and reachable
	// through errors.Is/errors.As too.
	ErrAborted = errors.New("cluster: group aborted")

	// ErrTimeout is the abort cause when a collective operation exceeded
	// the group's Options.Timeout deadline.
	ErrTimeout = errors.New("cluster: collective deadline exceeded")

	// ErrCanceled is the abort cause drivers use for an external cancel.
	ErrCanceled = errors.New("cluster: run canceled")

	// ErrInjected is returned at fault-injection crash points (FaultPlan).
	ErrInjected = errors.New("cluster: injected fault")
)

// AbortError is the error every pending and future operation returns
// once its group has aborted. It matches ErrAborted and wraps the cause.
type AbortError struct {
	Cause error
}

func (e *AbortError) Error() string {
	if e.Cause == nil {
		return ErrAborted.Error()
	}
	return ErrAborted.Error() + ": " + e.Cause.Error()
}

// Unwrap exposes the abort cause to errors.Is/errors.As.
func (e *AbortError) Unwrap() error { return e.Cause }

// Is makes errors.Is(err, ErrAborted) hold for every AbortError.
func (e *AbortError) Is(target error) bool { return target == ErrAborted }

// Latch is a first-trip-wins abort latch: the concurrency primitive
// behind the group-wide fail-fast semantics. Every communicator group
// shares one, and higher-level schedulers (the divide-and-conquer
// subproblem scheduler) reuse the same semantics to cancel sibling
// work units when one fails. The first Trip wins; the cause is stored
// before the channel closes, so any reader that observes Done() closed
// also observes the cause (channel-close ordering). The zero value is
// not usable; construct with NewLatch.
type Latch struct {
	once  sync.Once
	ch    chan struct{}
	cause error
}

// NewLatch returns a fresh, untripped latch.
func NewLatch() *Latch {
	return &Latch{ch: make(chan struct{})}
}

// Trip latches the given cause and releases every Done() waiter. Later
// calls are no-ops; the first cause wins. Safe from any goroutine.
func (a *Latch) Trip(cause error) {
	a.once.Do(func() {
		a.cause = cause
		close(a.ch)
	})
}

// Done returns a channel closed once the latch has tripped.
func (a *Latch) Done() <-chan struct{} { return a.ch }

// Err returns nil while the latch is untripped and an *AbortError
// wrapping the trip cause afterwards.
func (a *Latch) Err() error {
	select {
	case <-a.ch:
		return &AbortError{Cause: a.cause}
	default:
		return nil
	}
}

// Cause returns the first Trip's cause, or nil while untripped.
func (a *Latch) Cause() error {
	select {
	case <-a.ch:
		return a.cause
	default:
		return nil
	}
}
