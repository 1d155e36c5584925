// Package cluster is the message-passing substrate underneath the
// distributed-memory algorithms: an MPI-flavored communicator interface
// whose one collective is the allgather the combinatorial parallel
// Nullspace Algorithm's Communicate&Merge step needs, built on
// point-to-point sends with exact byte/message accounting.
//
// Two transports are provided. The in-process transport connects compute
// nodes (goroutines) through buffered channels — the substitute for the
// Blue Gene/P and InfiniBand fabrics of the paper's testbeds; messages
// are real byte slices so communication volume is measured faithfully.
// The TCP transport runs the same mesh over loopback sockets (package
// net) for integration testing with genuine serialization boundaries.
//
// Unlike the paper's assumed-reliable MPI fabric, the substrate is
// fail-fast: every group carries an abort latch (Comm.Abort, tripped by
// a failing node, an Options.Timeout collective deadline, or an external
// cancel) that unblocks every pending operation on every node with an
// error matching ErrAborted. WrapFaulty layers deterministic fault
// injection (crash points, message drops, delivery delays) over either
// transport so the failure paths are testable.
package cluster

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Comm is one compute node's endpoint into the group. Implementations
// are safe for use by that node's goroutine only, except Abort and the
// counters, which may be called from anywhere.
type Comm interface {
	// Rank is this node's id, 0..Size()-1.
	Rank() int
	// Size is the number of nodes in the group.
	Size() int
	// send delivers msg to the given node. The slice is owned by the
	// receiver afterwards; the sender must not reuse it.
	send(to int, msg []byte) error
	// recv blocks for the next message from the given node. Messages
	// from one sender arrive in order.
	recv(from int) ([]byte, error)
	// Allgather distributes each node's payload to every node; the
	// result is indexed by rank. Built on send/recv, so its traffic is
	// accounted. All nodes must call it collectively. When the group has
	// an Options.Timeout and the collective does not complete within it,
	// the whole group aborts (ErrTimeout).
	Allgather(local []byte) ([][]byte, error)
	// Abort trips the group-wide abort latch with the given cause:
	// every pending and future Allgather on every node of the group
	// fails promptly with an error matching ErrAborted (and wrapping
	// cause). The first abort wins; later calls are no-ops. Safe to call
	// from any goroutine.
	Abort(cause error)
	// Close releases the endpoint and joins its background goroutines.
	// Pending receives fail.
	Close() error

	// Stats return this node's cumulative traffic. BytesSent counts
	// payload bytes; WireBytesSent additionally includes transport
	// framing (identical to BytesSent on the in-process transport).
	BytesSent() int64
	WireBytesSent() int64
	MessagesSent() int64
}

// Options configure group-wide behaviour shared by both transports.
type Options struct {
	// Timeout bounds every Allgather. When one has not completed within
	// Timeout on some node, the whole group aborts with an error matching
	// both ErrAborted and ErrTimeout — a stalled peer fails the run
	// instead of wedging it. 0 disables the deadline.
	Timeout time.Duration
	// Buffered is the in-process transport's per-link channel capacity
	// (default 16); it bounds memory the way MPI eager buffers do.
	Buffered int
}

// counters is embedded by transports for traffic accounting.
type counters struct {
	bytes, wire, msgs atomic.Int64
}

func (c *counters) account(payload, wire int) {
	c.bytes.Add(int64(payload))
	c.wire.Add(int64(wire))
	c.msgs.Add(1)
}

// BytesSent returns the cumulative payload bytes sent by this node.
func (c *counters) BytesSent() int64 { return c.bytes.Load() }

// WireBytesSent returns the cumulative bytes put on the wire by this
// node, including transport framing.
func (c *counters) WireBytesSent() int64 { return c.wire.Load() }

// MessagesSent returns the cumulative message count sent by this node.
func (c *counters) MessagesSent() int64 { return c.msgs.Load() }

// collectiveTimeouter lets the shared collective implementations read a
// transport's configured deadline (and a wrapper delegate to it).
type collectiveTimeouter interface {
	collectiveTimeout() time.Duration
}

// timeoutOf returns c's collective deadline, 0 when it has none.
func timeoutOf(c Comm) time.Duration {
	if t, ok := c.(collectiveTimeouter); ok {
		return t.collectiveTimeout()
	}
	return 0
}

// allgather implements the collective on top of point-to-point sends:
// every node sends its payload to every other node and receives theirs,
// ordered by rank (the flat "personalized all-to-all" the paper's
// Communicate&Merge step performs).
//
// send's contract passes slice ownership to the receiver, so every peer
// — and the local out[rank] entry — gets a private copy of local; the
// caller stays free to reuse its buffer and receivers may mutate theirs.
//
// A positive timeout arms the group deadline: if the collective has not
// completed when it fires, the whole group aborts with ErrTimeout, so a
// missing or stalled peer costs bounded time instead of a deadlock.
func allgather(c Comm, timeout time.Duration, local []byte) ([][]byte, error) {
	if timeout > 0 {
		rank := c.Rank()
		timer := time.AfterFunc(timeout, func() {
			c.Abort(fmt.Errorf("%w: rank %d allgather still pending after %v", ErrTimeout, rank, timeout))
		})
		defer timer.Stop()
	}
	size, rank := c.Size(), c.Rank()
	out := make([][]byte, size)
	out[rank] = append([]byte(nil), local...)
	for off := 1; off < size; off++ {
		to := (rank + off) % size
		cp := append([]byte(nil), local...)
		if err := c.send(to, cp); err != nil {
			return nil, fmt.Errorf("cluster: allgather send to %d: %w", to, err)
		}
	}
	for off := 1; off < size; off++ {
		from := (rank - off + size) % size
		msg, err := c.recv(from)
		if err != nil {
			return nil, fmt.Errorf("cluster: allgather recv from %d: %w", from, err)
		}
		out[from] = msg
	}
	return out, nil
}

// GroupStats aggregates traffic over a group of communicators. Bytes is
// payload volume; WireBytes includes transport framing (the two agree on
// the in-process transport; TCP adds a 4-byte frame header per message).
type GroupStats struct {
	Bytes     int64
	WireBytes int64
	Messages  int64
}

// StatsOf sums the traffic counters of a node group.
func StatsOf(comms []Comm) GroupStats {
	var g GroupStats
	for _, c := range comms {
		g.Bytes += c.BytesSent()
		g.WireBytes += c.WireBytesSent()
		g.Messages += c.MessagesSent()
	}
	return g
}
