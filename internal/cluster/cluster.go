// Package cluster is the message-passing substrate underneath the
// distributed-memory algorithms: one MPI-flavored node mesh whose one
// collective is the allgather the combinatorial parallel Nullspace
// Algorithm's Communicate&Merge step needs, built on point-to-point
// sends with exact byte/message accounting.
//
// A group is one set of per-link inboxes, one abort latch and one close
// signal, and one endpoint type (Comm) sends, receives and gathers over
// it. Two wires deliver into the inboxes. In process (NewInProc) the
// sender puts the message in the receiver's inbox itself — the
// substitute for the Blue Gene/P and InfiniBand fabrics of the paper's
// testbeds; messages are real byte slices so communication volume is
// measured faithfully. Over TCP (NewTCPGroup) the sender frames the
// message onto a loopback socket and the receiver's reader pump puts it
// in the same inbox, so the mesh also runs across genuine serialization
// boundaries.
//
// Unlike the paper's assumed-reliable MPI fabric, the substrate is
// fail-fast: every group carries an abort latch (Comm.Abort, tripped by
// a failing node, an Options.Timeout collective deadline, or an external
// cancel) that unblocks every pending operation on every node with an
// error matching ErrAborted. Options.Fault injects deterministic faults
// (crash points, message drops, delivery delays) on either wire so the
// failure paths are testable.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by operations on a closed group.
var ErrClosed = errors.New("cluster: group closed")

// Options configure a group, whichever wire carries it.
type Options struct {
	// Timeout bounds every Allgather. When one has not completed within
	// Timeout on some node, the whole group aborts with an error matching
	// both ErrAborted and ErrTimeout — a stalled peer fails the run
	// instead of wedging it. 0 disables the deadline.
	Timeout time.Duration
	// Buffered is each link's inbox capacity (default 16). In process a
	// sender blocks on a full inbox; over TCP the reader pump does, and
	// the socket backs the sender up. It bounds memory the way MPI eager
	// buffers do.
	Buffered int
	// Fault, when non-nil, makes every endpoint inject the plan's
	// failures into its own operations (FaultPlan).
	Fault *FaultPlan
}

// Comm is one compute node's endpoint into its group.
type Comm = *Endpoint

// Endpoint is one node's end of a group. Its methods are for that
// node's goroutine only, except Abort, Close and the traffic counters,
// which may be called from anywhere.
type Endpoint struct {
	rank              int
	g                 *group
	bytes, wire, msgs atomic.Int64
	faults            faultState
}

// group is what every endpoint of a group shares. The wires differ in
// delivery alone: in process, send puts a message in inbox[to][from];
// over TCP, send frames it onto conns[from][to] and to's reader pump
// for that link puts it in the same inbox.
type group struct {
	size   int
	opts   Options
	inbox  [][]chan []byte // inbox[to][from]
	abort  *Latch
	done   chan struct{} // closed by the group's first Close
	closer sync.Once
	conns  [][]net.Conn // conns[r][p] is rank r's end of its socket to rank p; nil in process
	pumps  sync.WaitGroup
}

func newGroup(n int, opts Options) *group {
	if opts.Buffered <= 0 {
		opts.Buffered = 16
	}
	g := &group{size: n, opts: opts, abort: NewLatch(), done: make(chan struct{})}
	g.inbox = make([][]chan []byte, n)
	for to := range g.inbox {
		g.inbox[to] = make([]chan []byte, n)
		for from := range g.inbox[to] {
			g.inbox[to][from] = make(chan []byte, opts.Buffered)
		}
	}
	return g
}

func (g *group) endpoints() []Comm {
	comms := make([]Comm, g.size)
	for r := range comms {
		comms[r] = &Endpoint{rank: r, g: g}
	}
	return comms
}

// shutdown closes the group once: the close signal releases every
// pending receive and every pump blocked on a full inbox, closing the
// sockets releases every pump blocked in a read, and then the pumps are
// joined, so no goroutine outlives the group.
func (g *group) shutdown() {
	g.closer.Do(func() {
		close(g.done)
		for _, row := range g.conns {
			for _, conn := range row {
				if conn != nil {
					conn.Close()
				}
			}
		}
		g.pumps.Wait()
	})
}

// NewInProc creates an n-node group whose links are buffered channels
// and returns its endpoints, indexed by rank.
func NewInProc(n int, opts Options) []Comm {
	if n <= 0 {
		panic("cluster: non-positive group size")
	}
	return newGroup(n, opts).endpoints()
}

// Rank is this node's id, 0..Size()-1.
func (e *Endpoint) Rank() int { return e.rank }

// Size is the number of nodes in the group.
func (e *Endpoint) Size() int { return e.g.size }

// send delivers msg to the given node. The slice is owned by the
// receiver afterwards; the sender must not reuse it.
func (e *Endpoint) send(to int, msg []byte) error {
	g := e.g
	if to < 0 || to >= g.size || to == e.rank {
		return fmt.Errorf("cluster: send to invalid rank %d", to)
	}
	if err := e.injectOp(); err != nil {
		return err
	}
	if e.dropped(to) {
		return nil
	}
	if err := g.abort.Err(); err != nil {
		return err
	}
	if g.conns != nil {
		if err := WriteFrame(g.conns[e.rank][to], msg); err != nil {
			return fmt.Errorf("cluster: send to %d: %w", to, err)
		}
		e.account(len(msg), len(msg)+FrameHeaderLen)
		return nil
	}
	select {
	case g.inbox[to][e.rank] <- msg:
		e.account(len(msg), len(msg))
		return nil
	case <-g.abort.Done():
		return g.abort.Err()
	case <-g.done:
		return ErrClosed
	}
}

// recv blocks for the next message from the given node. Messages from
// one sender arrive in order.
func (e *Endpoint) recv(from int) ([]byte, error) {
	g := e.g
	if from < 0 || from >= g.size || from == e.rank {
		return nil, fmt.Errorf("cluster: recv from invalid rank %d", from)
	}
	if err := e.injectOp(); err != nil {
		return nil, err
	}
	if err := g.abort.Err(); err != nil {
		return nil, err
	}
	select {
	case msg, ok := <-g.inbox[e.rank][from]:
		if !ok { // the link's reader pump hit a read error
			return nil, ErrClosed
		}
		e.delay(from)
		return msg, nil
	case <-g.abort.Done():
		return nil, g.abort.Err()
	case <-g.done:
		return nil, ErrClosed
	}
}

// Allgather distributes each node's payload to every node; the result
// is indexed by rank. All nodes must call it collectively. Every node
// sends its payload to every other node and receives theirs, ordered by
// rank (the flat "personalized all-to-all" the paper's Communicate&Merge
// step performs), so its traffic is accounted.
//
// send passes slice ownership to the receiver, so every peer — and the
// local out[rank] entry — gets a private copy of local; the caller stays
// free to reuse its buffer and receivers may mutate theirs.
//
// When the group has an Options.Timeout and the collective has not
// completed within it, the whole group aborts (ErrTimeout), so a missing
// or stalled peer costs bounded time instead of a deadlock.
func (e *Endpoint) Allgather(local []byte) ([][]byte, error) {
	if err := e.injectCollective(); err != nil {
		return nil, err
	}
	if t := e.g.opts.Timeout; t > 0 {
		timer := time.AfterFunc(t, func() {
			e.Abort(fmt.Errorf("%w: rank %d allgather still pending after %v", ErrTimeout, e.rank, t))
		})
		defer timer.Stop()
	}
	size, rank := e.g.size, e.rank
	out := make([][]byte, size)
	out[rank] = append([]byte(nil), local...)
	for off := 1; off < size; off++ {
		to := (rank + off) % size
		if err := e.send(to, append([]byte(nil), local...)); err != nil {
			return nil, fmt.Errorf("cluster: allgather send to %d: %w", to, err)
		}
	}
	for off := 1; off < size; off++ {
		from := (rank - off + size) % size
		msg, err := e.recv(from)
		if err != nil {
			return nil, fmt.Errorf("cluster: allgather recv from %d: %w", from, err)
		}
		out[from] = msg
	}
	return out, nil
}

// Abort trips the group-wide abort latch with the given cause: every
// pending and future Allgather on every node of the group fails promptly
// with an error matching ErrAborted (and wrapping cause). The first
// abort wins; later calls are no-ops.
func (e *Endpoint) Abort(cause error) { e.g.abort.Trip(cause) }

// Close closes the whole group, not just this endpoint: pending and
// later receives on every node fail with ErrClosed, and over TCP the
// sockets are closed and their reader pumps joined. Later calls, on any
// endpoint, are no-ops.
func (e *Endpoint) Close() error {
	e.g.shutdown()
	return nil
}

func (e *Endpoint) account(payload, wire int) {
	e.bytes.Add(int64(payload))
	e.wire.Add(int64(wire))
	e.msgs.Add(1)
}

// BytesSent returns the cumulative payload bytes sent by this node.
func (e *Endpoint) BytesSent() int64 { return e.bytes.Load() }

// WireBytesSent returns the cumulative bytes put on the wire by this
// node: payload plus TCP's frame header, the payload alone in process.
func (e *Endpoint) WireBytesSent() int64 { return e.wire.Load() }

// MessagesSent returns the cumulative message count sent by this node.
func (e *Endpoint) MessagesSent() int64 { return e.msgs.Load() }

// GroupStats aggregates traffic over a group of communicators. Bytes is
// payload volume; WireBytes includes transport framing (the two agree in
// process; TCP adds a 4-byte frame header per message).
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
