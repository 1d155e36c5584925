package cluster

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTCPCloseJoinsPumpGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	comms, err := NewTCPGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	// Move some traffic so the pumps have demonstrably run.
	done := make(chan struct{})
	go func() { defer close(done); comms[3].recv(0) }()
	if err := comms[0].send(3, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	<-done
	closeAll(comms)
	// Close joins the pumps, but goroutine exit is observed asynchronously;
	// poll with a deadline rather than asserting instantly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d now vs %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// trackedConn records whether Close was called.
type trackedConn struct {
	net.Conn
	closed atomic.Bool
}

func (c *trackedConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// trackedListener wraps accepted connections so their lifecycle is
// observable too.
type trackedListener struct {
	net.Listener
	reg    *resourceRegistry
	closed atomic.Bool
}

func (l *trackedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.reg.track(conn), nil
}

func (l *trackedListener) Close() error {
	l.closed.Store(true)
	return l.Listener.Close()
}

type resourceRegistry struct {
	mu        sync.Mutex
	conns     []*trackedConn
	listeners []*trackedListener
}

func (r *resourceRegistry) track(conn net.Conn) *trackedConn {
	tc := &trackedConn{Conn: conn}
	r.mu.Lock()
	r.conns = append(r.conns, tc)
	r.mu.Unlock()
	return tc
}

func TestTCPSetupFailureClosesEverything(t *testing.T) {
	// With n=4 the mesh needs 6 dials; fail the last one. Setup must
	// return an error in bounded time (the closed listeners unblock the
	// pending accepts) and close every connection and listener it opened.
	reg := &resourceRegistry{}
	var dials atomic.Int32
	origListen, origDial := tcpListen, tcpDial
	defer func() { tcpListen, tcpDial = origListen, origDial }()
	tcpListen = func(network, addr string) (net.Listener, error) {
		l, err := origListen(network, addr)
		if err != nil {
			return nil, err
		}
		tl := &trackedListener{Listener: l, reg: reg}
		reg.mu.Lock()
		reg.listeners = append(reg.listeners, tl)
		reg.mu.Unlock()
		return tl, nil
	}
	tcpDial = func(network, addr string) (net.Conn, error) {
		if dials.Add(1) == 6 {
			return nil, errors.New("injected dial failure")
		}
		conn, err := origDial(network, addr)
		if err != nil {
			return nil, err
		}
		return reg.track(conn), nil
	}

	type result struct {
		comms []Comm
		err   error
	}
	resc := make(chan result, 1)
	go func() {
		comms, err := NewTCPGroup(4)
		resc <- result{comms, err}
	}()
	var res result
	select {
	case res = <-resc:
	case <-time.After(10 * time.Second):
		t.Fatal("NewTCPGroup wedged on a failed dial")
	}
	if res.err == nil {
		closeAll(res.comms)
		t.Fatal("NewTCPGroup succeeded despite the injected dial failure")
	}

	reg.mu.Lock()
	defer reg.mu.Unlock()
	for i, l := range reg.listeners {
		if !l.closed.Load() {
			t.Errorf("listener %d leaked (never closed)", i)
		}
	}
	for i, c := range reg.conns {
		if !c.closed.Load() {
			t.Errorf("connection %d leaked (never closed)", i)
		}
	}
	if len(reg.listeners) != 4 {
		t.Errorf("expected 4 listeners, tracked %d", len(reg.listeners))
	}
}

// TestTCPSendNoRetriesByDefault: a failed write is returned by the first
// attempt with its cause still matchable, and is not accounted. (The
// name dates from an opt-in retry budget; no deadline is ever set on a
// mesh connection, so there was never a transient failure to retry.)
func TestTCPSendNoRetriesByDefault(t *testing.T) {
	comms, err := NewTCPGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(comms)
	comms[0].(*tcpComm).peers[1].Close()
	err = comms[0].send(1, []byte("doomed"))
	if !errors.Is(err, net.ErrClosed) {
		t.Fatalf("send on a closed connection: %v, want net.ErrClosed", err)
	}
	if got := comms[0].BytesSent(); got != 0 {
		t.Errorf("failed send was accounted: BytesSent = %d", got)
	}
}

// TestTCPPumpRefusesOversizedFrame: a header announcing more than
// MaxFrame must end the link, not make the pump allocate the announced
// size (up to 4 GiB off four bytes) and wait for a body that never
// comes.
func TestTCPPumpRefusesOversizedFrame(t *testing.T) {
	comms, err := NewTCPGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(comms)
	if _, err := comms[0].(*tcpComm).peers[1].Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := comms[1].recv(0)
		got <- err
	}()
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv after an oversized header: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pump is still waiting for the body of an oversized frame")
	}
}
