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
	go func() { defer close(done); comms[3].Recv(0) }()
	if err := comms[0].Send(3, []byte("ping")); err != nil {
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

// timeoutError is a fake transient network error (Timeout() == true).
type timeoutError struct{}

func (timeoutError) Error() string   { return "fake i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// flakyConn delegates reads untouched (mesh setup and pumps are
// unaffected) and consults failWrite before each Write: when it returns
// true the write fails with a zero-byte transient error. failWrite is
// set between group construction and the first Send, both on the test
// goroutine, so no synchronization is needed.
type flakyConn struct {
	net.Conn
	failWrite func() bool
}

func (c *flakyConn) Write(b []byte) (int, error) {
	if c.failWrite != nil && c.failWrite() {
		return 0, timeoutError{}
	}
	return c.Conn.Write(b)
}

// flakyTCPPair builds a 2-node TCP group whose single dialed connection
// (rank 0's link to rank 1) is a flakyConn, returned for arming.
func flakyTCPPair(t *testing.T, opts Options) ([]Comm, *flakyConn) {
	t.Helper()
	var flaky *flakyConn
	origDial := tcpDial
	defer func() { tcpDial = origDial }()
	tcpDial = func(network, addr string) (net.Conn, error) {
		conn, err := origDial(network, addr)
		if err != nil {
			return nil, err
		}
		flaky = &flakyConn{Conn: conn}
		return flaky, nil
	}
	comms, err := NewTCPGroupOpts(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if flaky == nil {
		t.Fatal("dial hook never fired")
	}
	return comms, flaky
}

// failFirstN returns a failWrite hook that fails the first n writes.
func failFirstN(n int32) func() bool {
	var count atomic.Int32
	return func() bool { return count.Add(1) <= n }
}

func TestTCPSendRetriesTransientFailure(t *testing.T) {
	comms, flaky := flakyTCPPair(t, Options{SendRetries: 3})
	defer closeAll(comms)
	flaky.failWrite = failFirstN(2)
	done := make(chan []byte, 1)
	go func() {
		msg, _ := comms[1].Recv(0)
		done <- msg
	}()
	if err := comms[0].Send(1, []byte("retried")); err != nil {
		t.Fatalf("Send with retries failed: %v", err)
	}
	select {
	case msg := <-done:
		if string(msg) != "retried" {
			t.Fatalf("delivered %q after retries, want %q", msg, "retried")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("retried message never delivered")
	}
	if got := comms[0].MessagesSent(); got != 1 {
		t.Errorf("MessagesSent = %d after retries, want 1 (no double count)", got)
	}
}

func TestTCPSendNoRetriesByDefault(t *testing.T) {
	comms, flaky := flakyTCPPair(t, Options{})
	defer closeAll(comms)
	flaky.failWrite = failFirstN(1)
	err := comms[0].Send(1, []byte("doomed"))
	if err == nil {
		t.Fatal("Send succeeded with no retry budget and a failing conn")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("error lost its net.Error identity: %v", err)
	}
	if got := comms[0].BytesSent(); got != 0 {
		t.Errorf("failed send was accounted: BytesSent = %d", got)
	}
}

func TestTCPSendNoRetryAfterPartialWrite(t *testing.T) {
	// Once bytes are on the wire a retry would corrupt framing; verify a
	// mid-frame transient error is NOT retried even with budget left.
	// net.Buffers on a wrapped (non-*net.TCPConn) connection falls back
	// to sequential Write calls, so failing the second write simulates a
	// frame whose header reached the socket but whose payload did not.
	comms, flaky := flakyTCPPair(t, Options{SendRetries: 5})
	defer closeAll(comms)
	var writes atomic.Int32
	flaky.failWrite = func() bool { return writes.Add(1) == 2 }
	err := comms[0].Send(1, []byte("partial"))
	if err == nil {
		t.Fatal("Send succeeded despite a mid-frame failure")
	}
	if writes.Load() > 2 {
		t.Fatalf("Send retried after a partial write (%d writes observed)", writes.Load())
	}
}

// TestTCPPumpRefusesOversizedFrame: a header announcing more than
// MaxFrame must end the link, not make the pump allocate the announced
// size (up to 4 GiB off four bytes) and wait for a body that never
// comes.
func TestTCPPumpRefusesOversizedFrame(t *testing.T) {
	comms, flaky := flakyTCPPair(t, Options{})
	defer closeAll(comms)
	if _, err := flaky.Conn.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := comms[1].Recv(0)
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
