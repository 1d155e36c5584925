package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// Dial/listen indirections, overridable by tests to inject setup
// failures deterministically.
var (
	tcpListen = net.Listen
	tcpDial   = net.Dial
)

// NewTCPGroup builds an n-node group connected by a full mesh of
// loopback TCP connections and returns the endpoints indexed by rank.
// The group lives in this process (one goroutine mesh), but every byte
// crosses a real socket.
func NewTCPGroup(n int) ([]Comm, error) {
	return NewTCPGroupOpts(n, Options{})
}

// NewTCPGroupOpts is NewTCPGroup with the group options. Setup is
// all-or-nothing: on any error every listener and every connection
// established so far is closed before the error is returned, and a
// failed dial unblocks the pending accepts, so a broken mesh costs
// bounded time and leaks nothing.
func NewTCPGroupOpts(n int, opts Options) ([]Comm, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: non-positive group size")
	}
	g := newGroup(n, opts)
	g.conns = make([][]net.Conn, n)
	for r := range g.conns {
		g.conns[r] = make([]net.Conn, n)
	}
	listeners := make([]net.Listener, n)
	closeListeners := sync.OnceFunc(func() {
		for _, l := range listeners {
			if l != nil {
				l.Close()
			}
		}
	})
	// cleanup releases everything the partial setup acquired; the error
	// paths below own all conns (goroutines have finished, no pump has
	// started), so no concurrent writer races with it.
	cleanup := func() {
		closeListeners()
		g.shutdown()
	}
	for r := range listeners {
		l, err := tcpListen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("cluster: listen: %w", err)
		}
		listeners[r] = l
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
				g.conns[a][b] = conn
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
				if from < 0 || from >= b || g.conns[b][from] != nil {
					conn.Close()
					fail(fmt.Errorf("cluster: mesh setup: bogus hello rank %d at rank %d", from, b))
					return
				}
				g.conns[b][from] = conn
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
	for to := 0; to < n; to++ {
		for from := 0; from < n; from++ {
			if from != to {
				g.pumps.Add(1)
				go g.pump(to, from)
			}
		}
	}
	return g.endpoints(), nil
}

// pump moves the frames rank from sends to rank to into to's inbox for
// that link. A read error (the peer's socket closed, a corrupt or
// oversized frame) ends the link: the pump closes the inbox, so to's
// next receive from that rank returns ErrClosed.
func (g *group) pump(to, from int) {
	defer g.pumps.Done()
	inbox := g.inbox[to][from]
	for {
		msg, err := ReadFrame(g.conns[to][from], MaxFrame)
		if err != nil {
			close(inbox)
			return
		}
		select {
		case inbox <- msg:
		case <-g.done:
			return
		case <-g.abort.Done():
			return
		}
	}
}
