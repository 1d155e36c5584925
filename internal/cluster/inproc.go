package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// inprocComm is one endpoint of an in-process node group. Each ordered
// (from, to) pair has a dedicated buffered channel, so per-sender FIFO
// order holds and there is no head-of-line blocking across senders —
// the same delivery semantics MPI point-to-point messaging provides.
type inprocComm struct {
	counters
	rank  int
	group *inprocGroup
}

type inprocGroup struct {
	size  int
	boxes [][]chan []byte // boxes[to][from]
	done  chan struct{}
	once  sync.Once
	abort *Latch
	opts  Options
}

// ErrClosed is returned by operations on a closed group.
var ErrClosed = errors.New("cluster: group closed")

// NewInProc creates an n-node in-process group and returns the per-node
// communicators, indexed by rank. bufferedMsgs sets the per-channel
// capacity (a small default is used when 0); the capacity bounds memory
// the same way MPI eager buffers do — senders block when a receiver
// falls too far behind.
func NewInProc(n, bufferedMsgs int) []Comm {
	return NewInProcOpts(n, Options{Buffered: bufferedMsgs})
}

// NewInProcOpts is NewInProc with the full option set (collective
// deadline, buffer capacity).
func NewInProcOpts(n int, opts Options) []Comm {
	if n <= 0 {
		panic("cluster: non-positive group size")
	}
	if opts.Buffered <= 0 {
		opts.Buffered = 16
	}
	g := &inprocGroup{size: n, done: make(chan struct{}), abort: NewLatch(), opts: opts}
	g.boxes = make([][]chan []byte, n)
	for to := 0; to < n; to++ {
		g.boxes[to] = make([]chan []byte, n)
		for from := 0; from < n; from++ {
			g.boxes[to][from] = make(chan []byte, opts.Buffered)
		}
	}
	comms := make([]Comm, n)
	for r := 0; r < n; r++ {
		comms[r] = &inprocComm{rank: r, group: g}
	}
	return comms
}

func (c *inprocComm) Rank() int { return c.rank }
func (c *inprocComm) Size() int { return c.group.size }

func (c *inprocComm) collectiveTimeout() time.Duration { return c.group.opts.Timeout }

func (c *inprocComm) send(to int, msg []byte) error {
	if to < 0 || to >= c.group.size {
		return fmt.Errorf("cluster: send to invalid rank %d", to)
	}
	if to == c.rank {
		return errors.New("cluster: self-send not supported")
	}
	if err := c.group.abort.Err(); err != nil {
		return err
	}
	select {
	case c.group.boxes[to][c.rank] <- msg:
		c.account(len(msg), len(msg))
		return nil
	case <-c.group.abort.Done():
		return c.group.abort.Err()
	case <-c.group.done:
		return ErrClosed
	}
}

func (c *inprocComm) recv(from int) ([]byte, error) {
	if from < 0 || from >= c.group.size {
		return nil, fmt.Errorf("cluster: recv from invalid rank %d", from)
	}
	if from == c.rank {
		return nil, errors.New("cluster: self-recv not supported")
	}
	if err := c.group.abort.Err(); err != nil {
		return nil, err
	}
	select {
	case msg := <-c.group.boxes[c.rank][from]:
		return msg, nil
	case <-c.group.abort.Done():
		return nil, c.group.abort.Err()
	case <-c.group.done:
		return nil, ErrClosed
	}
}

func (c *inprocComm) Allgather(local []byte) ([][]byte, error) {
	return allgather(c, c.group.opts.Timeout, local)
}

func (c *inprocComm) Abort(cause error) { c.group.abort.Trip(cause) }

func (c *inprocComm) Close() error {
	c.group.once.Do(func() { close(c.group.done) })
	return nil
}
