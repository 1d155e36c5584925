package distrib

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"elmocomp/internal/cluster"
	"elmocomp/internal/core"
	"elmocomp/internal/dnc"
	"elmocomp/internal/parallel"
)

// dialTimeout bounds connecting plus the hello exchange: the
// coordinator's side of the worker's helloTimeout.
const dialTimeout = 5 * time.Second

// PoolOptions configure the coordinator's worker-connection pool.
type PoolOptions struct {
	// ClassTimeout is the per-class response deadline: a worker holding
	// a class longer is declared wedged, its connections closed, and the
	// class requeued (default 2m). Must comfortably exceed the slowest
	// class.
	ClassTimeout time.Duration
	// Inflight is ignored: a job runs one class at a time on each
	// worker, so a class leaves the queue only when a worker can start
	// it. The field stays for callers that set it by name.
	Inflight int
}

// JobSpec is the per-job half of a class request: the canonical network
// and the options every class of the job shares. Q is the reduced column
// count the caller derived — responses are validated against it so a
// worker disagreeing about the reduction is caught at the codec, not in
// the merged result. Exec is the parallel.Options the job's local groups
// run classes under; a remote class runs under its wire image (see
// appendSpec), so the two cannot drift apart field by field.
type JobSpec struct {
	Key            string
	Network        string
	Q              int
	KeepDuplicates bool
	Exec           parallel.Options
}

// Pool is a fixed fleet of worker links. It implements nothing itself;
// Bind projects it onto one job as a dnc.RemoteExecutor. A link dials
// lazily, carries one class per connection at a time, and dials again on
// the next use after a failure — so a worker restarted between jobs
// rejoins the fleet without coordinator restarts, while within one job
// the scheduler retires a failed slot after its requeue.
type Pool struct {
	opts    PoolOptions
	workers []*workerLink
}

// NewPool builds a pool over the worker addresses. No connection is
// attempted until the first class is dispatched.
func NewPool(addrs []string, opts PoolOptions) *Pool {
	if opts.ClassTimeout <= 0 {
		opts.ClassTimeout = 2 * time.Minute
	}
	p := &Pool{opts: opts}
	for _, a := range addrs {
		p.workers = append(p.workers, &workerLink{addr: a, busy: make(map[net.Conn]bool), stats: WorkerStats{Addr: a, Alive: true}})
	}
	return p
}

// Size returns the fleet size.
func (p *Pool) Size() int { return len(p.workers) }

// Close closes every connection. Safe concurrently with in-flight
// classes: they fail as worker-lost and the schedulers requeue.
func (p *Pool) Close() {
	for _, w := range p.workers {
		w.drop(nil, true)
	}
}

// WorkerStats is one worker's coordinator-side counter snapshot, served
// on /varz. PayloadBytes counts the logical bytes of each class exchange
// (the request body plus the support payload); WireBytes counts the
// framed bytes actually sent and received, so the two differ by framing
// and the result frame's header fields, nothing else. LastError is the
// error of the link's latest failure, so a worker refused for speaking
// another protocol version says so.
type WorkerStats struct {
	Addr         string `json:"addr"`
	Alive        bool   `json:"alive"`
	Dispatched   int64  `json:"dispatched"`
	Completed    int64  `json:"completed"`
	Failures     int64  `json:"failures"`
	Timeouts     int64  `json:"timeouts"`
	PayloadBytes int64  `json:"payload_bytes"`
	WireBytes    int64  `json:"wire_bytes"`
	LastError    string `json:"last_error,omitempty"`
}

// Stats snapshots every worker's counters.
func (p *Pool) Stats() []WorkerStats {
	out := make([]WorkerStats, len(p.workers))
	for i, w := range p.workers {
		w.mu.Lock()
		out[i] = w.stats
		w.mu.Unlock()
	}
	return out
}

// Bind projects the pool onto one job as the scheduler's executor.
func (p *Pool) Bind(spec JobSpec) dnc.RemoteExecutor {
	return &boundExec{p: p, spec: spec}
}

// workerLink is one worker's connections. A call takes an idle one (or
// dials a new one), carries exactly one class on it and puts it back, so
// a link holds at most one connection per concurrent call: one per bound
// job. busy holds the connections carrying a call; a teardown closes
// them and the idle ones alike.
type workerLink struct {
	addr string

	mu   sync.Mutex
	idle []net.Conn
	busy map[net.Conn]bool
	seq  uint64
	// stats are the link's counters. Alive goes false when the link
	// fails and true again on a successful dial.
	stats WorkerStats
}

// boundExec is a Pool bound to one JobSpec.
type boundExec struct {
	p    *Pool
	spec JobSpec
}

// Slots exposes one slot per worker, so a job's runner pops a class
// only when its worker can start it: no class waits behind a busy
// worker while another worker idles.
func (e *boundExec) Slots() int { return len(e.p.workers) }

func (e *boundExec) Alive(slot int) bool {
	w := e.p.workers[slot]
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats.Alive
}

func (e *boundExec) Run(slot int, c dnc.RemoteClass, cancel <-chan struct{}) (*dnc.ClassOutcome, error) {
	w := e.p.workers[slot]
	req := &classRequest{
		Key:            e.spec.Key,
		Network:        e.spec.Network,
		Exec:           e.spec.Exec,
		KeepDuplicates: e.spec.KeepDuplicates,
		Partition:      c.Partition,
		Class:          c.ID,
		Depth:          c.Depth,
		StrictMem:      c.StrictMem,
	}
	start := time.Now()
	resp, err := w.call(req, cancel, e.p.opts.ClassTimeout)
	if err != nil {
		return nil, err
	}
	call := time.Since(start).Seconds()
	switch resp.Status {
	case statusOK:
		supports, derr := core.DecodeSupportList(resp.Supports, e.spec.Q)
		if derr != nil {
			// A payload the coordinator cannot decode means the link (or
			// the worker) is unreliable: sever it and let the class rerun
			// elsewhere rather than aborting the job.
			w.drop(nil, true)
			return nil, w.fail(derr, dnc.ErrWorkerLost)
		}
		return &dnc.ClassOutcome{
			Supports:      supports,
			Pairs:         resp.Pairs,
			PeakNodeBytes: resp.PeakNodeBytes,
			Phases:        resp.Phases,
			Seconds:       resp.Seconds,
			Worker:        w.addr,
			CallSeconds:   call,
		}, nil
	case statusSkipped:
		return &dnc.ClassOutcome{Skipped: true}, nil
	case statusBudget:
		return nil, fmt.Errorf("distrib: worker %s: class %s over mode budget: %w", w.addr, c.Label, core.ErrBudget)
	case statusMemBudget:
		return nil, fmt.Errorf("distrib: worker %s: class %s over memory budget: %w", w.addr, c.Label, core.ErrMemBudget)
	default: // statusError; decodeResult admits no other byte
		return nil, fmt.Errorf("distrib: worker %s: class %s: %s", w.addr, c.Label, resp.Error)
	}
}

// call performs one request/reply exchange on a connection of its own.
// A closed cancel closes that connection and nothing else: the worker is
// fine, the job is not. A connection that sat idle may have been closed
// by its worker meanwhile (a worker restarted between jobs), so a call
// that fails on one, other than by its deadline, drops the idle
// connections and tries once more on a fresh one. Any other failure
// severs every connection to the worker, so its other classes in flight
// fail and requeue too; only the call whose connection was still open
// does the teardown, and only it reports a deadline as
// dnc.ErrWorkerTimeout.
func (w *workerLink) call(req *classRequest, cancel <-chan struct{}, timeout time.Duration) (*classResponse, error) {
	for retried := false; ; retried = true {
		conn, reused, err := w.take(req)
		if err != nil {
			return nil, w.fail(err, dnc.ErrWorkerLost)
		}
		resp, err := w.exchange(conn, req, cancel, timeout)
		select {
		case <-cancel:
			w.release(conn, false)
			if err != nil {
				return nil, fmt.Errorf("distrib: worker %s: job canceled: %w", w.addr, dnc.ErrWorkerLost)
			}
		default:
			deadline := errors.Is(err, os.ErrDeadlineExceeded)
			switch {
			case err == nil:
				w.release(conn, true)
			case reused && !retried && !deadline && w.drop(conn, false):
				continue
			case w.drop(conn, true) && deadline:
				return nil, w.fail(fmt.Errorf("no response within %v", timeout), dnc.ErrWorkerTimeout)
			default:
				return nil, w.fail(err, dnc.ErrWorkerLost)
			}
		}
		w.mu.Lock()
		w.stats.Completed++
		w.stats.PayloadBytes += int64(len(resp.Supports))
		w.mu.Unlock()
		return resp, nil
	}
}

// exchange writes the class frame and reads its one reply, both under
// one deadline; a closed cancel closes the connection under them.
func (w *workerLink) exchange(conn net.Conn, req *classRequest, cancel <-chan struct{}, timeout time.Duration) (*classResponse, error) {
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		select {
		case <-cancel:
			conn.Close()
		case <-stop:
		}
	}()
	defer func() { close(stop); <-stopped }()
	conn.SetDeadline(time.Now().Add(timeout))
	body := encodeClass(req)
	if err := cluster.WriteFrame(conn, body); err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.stats.Dispatched++
	w.stats.WireBytes += int64(len(body)) + cluster.FrameHeaderLen
	w.stats.PayloadBytes += int64(len(body))
	w.mu.Unlock()
	reply, err := cluster.ReadFrame(conn, cluster.MaxFrame)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.stats.WireBytes += int64(len(reply)) + cluster.FrameHeaderLen
	w.mu.Unlock()
	resp, err := decodeResult(reply)
	if err == nil && resp.Seq != req.Seq {
		err = fmt.Errorf("reply %d to class request %d", resp.Seq, req.Seq)
	}
	return resp, err
}

// take numbers the request and hands it a connection: an idle one, or a
// fresh dial. reused says which.
func (w *workerLink) take(req *classRequest) (conn net.Conn, reused bool, err error) {
	w.mu.Lock()
	w.seq++
	req.Seq = w.seq
	if n := len(w.idle); n > 0 {
		conn = w.idle[n-1]
		w.idle, w.busy[conn] = w.idle[:n-1], true
		w.mu.Unlock()
		return conn, true, nil
	}
	w.mu.Unlock()
	conn, err = dialHello(w.addr, dialTimeout)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stats.Alive = err == nil
	if err != nil {
		return nil, false, err
	}
	w.busy[conn] = true
	return conn, false, nil
}

// release ends a call's hold on its connection: back on the idle list
// when keep, closed otherwise. A teardown that closed it meanwhile has
// left nothing to do.
func (w *workerLink) release(conn net.Conn, keep bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.busy[conn] {
		return
	}
	delete(w.busy, conn)
	if keep {
		w.idle = append(w.idle, conn)
	} else {
		conn.Close()
	}
}

// drop closes conn, the connection a call failed on, and the idle
// connections; with all, every connection to the worker, marking it
// down, so its other classes in flight fail and requeue too. It does so
// only while conn is still open (nil: always) and reports whether it
// did: the one call that tears the link down tells a timeout from a
// loss, and a call that a teardown already failed leaves connections
// dialed since alone.
func (w *workerLink) drop(conn net.Conn, all bool) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if conn != nil && !w.busy[conn] {
		return false
	}
	for c := range w.busy {
		if all || c == conn {
			c.Close()
			delete(w.busy, c)
		}
	}
	for _, c := range w.idle {
		c.Close()
	}
	w.idle = nil
	w.stats.Alive = w.stats.Alive && !all
	return true
}

// fail counts a failure of the link, a timeout too when kind is
// dnc.ErrWorkerTimeout, records it for WorkerStats, and returns it
// wrapped in kind: dnc.ErrWorkerLost or dnc.ErrWorkerTimeout. Caller
// holds no lock.
func (w *workerLink) fail(cause, kind error) error {
	err := fmt.Errorf("distrib: worker %s: %v: %w", w.addr, cause, kind)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stats.Failures++
	if kind == dnc.ErrWorkerTimeout {
		w.stats.Timeouts++
	}
	w.stats.LastError = err.Error()
	return err
}

// dialHello connects and completes the hello exchange, all within
// timeout.
func dialHello(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(timeout))
	if err := greet(conn); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}

// greet sends the coordinator's hello and checks the worker's answer.
func greet(conn net.Conn) error {
	if err := writeHello(conn, hello{Proto: protoVersion}); err != nil {
		return err
	}
	answer, err := readHello(conn)
	if err != nil {
		return err
	}
	if answer.Error != "" {
		return fmt.Errorf("worker refused the connection: %s", answer.Error)
	}
	return answer.mismatch("worker")
}
