package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Dial/listen indirections, overridable by tests to inject setup
// failures deterministically.
var (
	tcpListen = net.Listen
	tcpDial   = net.Dial
)

// tcpComm is a communicator whose messages travel over loopback TCP
// connections — a full serialization boundary, used to validate that the
// distributed algorithm makes no shared-memory assumptions.
type tcpComm struct {
	counters
	rank, size int
	opts       Options
	abort      *Latch
	peers      []net.Conn // peers[r] carries traffic to/from rank r (nil for self)
	inbox      []chan []byte
	sendMu     []sync.Mutex
	closeOnce  sync.Once
	closed     chan struct{}
	wg         sync.WaitGroup
}

// NewTCPGroup builds an n-node group connected by a full mesh of
// loopback TCP connections and returns the communicators indexed by
// rank. The group lives in this process (one goroutine mesh), but every
// byte crosses a real socket.
func NewTCPGroup(n int) ([]Comm, error) {
	return NewTCPGroupOpts(n, Options{})
}

// NewTCPGroupOpts is NewTCPGroup with the group options (the collective
// deadline). Setup is all-or-nothing: on any
// error every listener and every connection established so far is
// closed before the error is returned, and a failed dial unblocks the
// pending accepts, so a broken mesh costs bounded time and leaks
// nothing.
func NewTCPGroupOpts(n int, opts Options) ([]Comm, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: non-positive group size")
	}
	ab := NewLatch()
	listeners := make([]net.Listener, n)
	comms := make([]*tcpComm, n)
	closeListeners := sync.OnceFunc(func() {
		for _, l := range listeners {
			if l != nil {
				l.Close()
			}
		}
	})
	// cleanup releases everything the partial setup acquired; the error
	// paths below own all conns (goroutines have finished), so no
	// concurrent writer races with it.
	cleanup := func() {
		closeListeners()
		for _, c := range comms {
			if c == nil {
				continue
			}
			for _, conn := range c.peers {
				if conn != nil {
					conn.Close()
				}
			}
		}
	}
	for r := range listeners {
		l, err := tcpListen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("cluster: listen: %w", err)
		}
		listeners[r] = l
	}
	for r := 0; r < n; r++ {
		comms[r] = &tcpComm{
			rank:   r,
			size:   n,
			opts:   opts,
			abort:  ab,
			peers:  make([]net.Conn, n),
			inbox:  make([]chan []byte, n),
			sendMu: make([]sync.Mutex, n),
			closed: make(chan struct{}),
		}
		for p := 0; p < n; p++ {
			comms[r].inbox[p] = make(chan []byte, 64)
		}
	}
	// Mesh construction: rank a dials rank b for a < b, announcing its
	// rank in the first frame. The first failure closes the listeners so
	// every pending Accept unblocks — setup must fail fast, not wedge.
	var wg sync.WaitGroup
	errs := make(chan error, 2*n*n)
	fail := func(err error) {
		errs <- err
		closeListeners()
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			wg.Add(1)
			go func(a, b int) {
				defer wg.Done()
				conn, err := tcpDial("tcp", listeners[b].Addr().String())
				if err != nil {
					fail(err)
					return
				}
				var hello [4]byte
				binary.LittleEndian.PutUint32(hello[:], uint32(a))
				if _, err := conn.Write(hello[:]); err != nil {
					conn.Close()
					fail(err)
					return
				}
				comms[a].peers[b] = conn
			}(a, b)
		}
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for i := 0; i < b; i++ { // b accepts one conn from every lower rank
				conn, err := listeners[b].Accept()
				if err != nil {
					fail(err)
					return
				}
				var hello [4]byte
				if _, err := io.ReadFull(conn, hello[:]); err != nil {
					conn.Close()
					fail(err)
					return
				}
				from := int(binary.LittleEndian.Uint32(hello[:]))
				if from < 0 || from >= b || comms[b].peers[from] != nil {
					conn.Close()
					fail(fmt.Errorf("cluster: mesh setup: bogus hello rank %d at rank %d", from, b))
					return
				}
				comms[b].peers[from] = conn
			}
		}(a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("cluster: mesh setup: %w", err)
		}
	}
	closeListeners()
	// Start reader pumps: one per connection, demuxing into the inbox.
	for r := 0; r < n; r++ {
		c := comms[r]
		for p := 0; p < n; p++ {
			if p == r {
				continue
			}
			c.wg.Add(1)
			go c.pump(p)
		}
	}
	out := make([]Comm, n)
	for r := range comms {
		out[r] = comms[r]
	}
	return out, nil
}

func (c *tcpComm) pump(from int) {
	defer c.wg.Done()
	conn := c.peers[from]
	for {
		msg, err := ReadFrame(conn, MaxFrame)
		if err != nil {
			close(c.inbox[from])
			return
		}
		select {
		case c.inbox[from] <- msg:
		case <-c.closed:
			return
		case <-c.abort.Done():
			return
		}
	}
}

func (c *tcpComm) Rank() int { return c.rank }
func (c *tcpComm) Size() int { return c.size }

func (c *tcpComm) collectiveTimeout() time.Duration { return c.opts.Timeout }

func (c *tcpComm) send(to int, msg []byte) error {
	if to < 0 || to >= c.size || to == c.rank {
		return fmt.Errorf("cluster: send to invalid rank %d", to)
	}
	if err := c.abort.Err(); err != nil {
		return err
	}
	c.sendMu[to].Lock()
	defer c.sendMu[to].Unlock()
	if err := WriteFrame(c.peers[to], msg); err != nil {
		return fmt.Errorf("cluster: send to %d: %w", to, err)
	}
	c.account(len(msg), len(msg)+FrameHeaderLen)
	return nil
}

func (c *tcpComm) recv(from int) ([]byte, error) {
	if from < 0 || from >= c.size || from == c.rank {
		return nil, fmt.Errorf("cluster: recv from invalid rank %d", from)
	}
	if err := c.abort.Err(); err != nil {
		return nil, err
	}
	select {
	case msg, ok := <-c.inbox[from]:
		if !ok {
			return nil, ErrClosed
		}
		return msg, nil
	case <-c.abort.Done():
		return nil, c.abort.Err()
	case <-c.closed:
		return nil, ErrClosed
	}
}

func (c *tcpComm) Allgather(local []byte) ([][]byte, error) {
	return allgather(c, c.opts.Timeout, local)
}

func (c *tcpComm) Abort(cause error) { c.abort.Trip(cause) }

// Close tears down the endpoint and joins its pump goroutines: closing
// the connections unblocks any pump stuck in a read, and the closed
// channel unblocks any pump stuck delivering into a full inbox, so the
// wait is bounded and no goroutine outlives the endpoint.
func (c *tcpComm) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		for _, conn := range c.peers {
			if conn != nil {
				conn.Close()
			}
		}
		c.wg.Wait()
	})
	return nil
}
