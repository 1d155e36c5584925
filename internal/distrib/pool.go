package distrib

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"elmocomp/internal/cluster"
	"elmocomp/internal/core"
	"elmocomp/internal/dnc"
	"elmocomp/internal/parallel"
)

// PoolOptions configure the coordinator's worker-connection pool.
type PoolOptions struct {
	// DialTimeout bounds connecting plus the hello exchange (default 5s).
	DialTimeout time.Duration
	// ClassTimeout is the per-class response deadline: a worker holding
	// a class longer is declared wedged, its link severed, and the class
	// requeued (default 2m). Must comfortably exceed the slowest class.
	ClassTimeout time.Duration
	// Inflight is the per-link credit: how many classes may be in flight
	// on one worker connection at once (default 2). Credit 2 lets a
	// dispatcher ship the next class while the worker computes the
	// current one, overlapping transfer with compute; the worker still
	// executes serially per connection.
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
// Bind projects it onto one job as a dnc.RemoteExecutor. Links dial
// lazily, multiplex up to Inflight seq-tagged classes each, and redial
// on the next use after a failure — so a worker restarted between jobs
// rejoins the fleet without coordinator restarts, while within one job
// the scheduler retires a failed slot after its requeue.
type Pool struct {
	opts    PoolOptions
	workers []*workerLink
}

// NewPool builds a pool over the worker addresses. No connection is
// attempted until the first class is dispatched.
func NewPool(addrs []string, opts PoolOptions) *Pool {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	if opts.ClassTimeout <= 0 {
		opts.ClassTimeout = 2 * time.Minute
	}
	if opts.Inflight <= 0 {
		opts.Inflight = 2
	}
	p := &Pool{opts: opts}
	for _, a := range addrs {
		p.workers = append(p.workers, &workerLink{addr: a})
	}
	return p
}

// Size returns the fleet size.
func (p *Pool) Size() int { return len(p.workers) }

// Close severs every link. Safe concurrently with in-flight classes:
// they fail as worker-lost and the schedulers requeue.
func (p *Pool) Close() {
	for _, w := range p.workers {
		w.mu.Lock()
		gen := w.gen
		w.mu.Unlock()
		w.sever(gen, errors.New("pool closed"))
		w.mu.Lock()
		w.down = true
		w.mu.Unlock()
	}
}

// WorkerStats is one worker's coordinator-side counter snapshot, served
// on /varz. PayloadBytes counts the logical bytes of each class exchange
// (the request body plus the flat support payload); WireBytes counts the
// framed bytes actually sent and received, so the two differ by framing
// and by what result compression saves.
type WorkerStats struct {
	Addr         string `json:"addr"`
	Alive        bool   `json:"alive"`
	Dispatched   int64  `json:"dispatched"`
	Completed    int64  `json:"completed"`
	Failures     int64  `json:"failures"`
	Timeouts     int64  `json:"timeouts"`
	PayloadBytes int64  `json:"payload_bytes"`
	WireBytes    int64  `json:"wire_bytes"`
}

// Stats snapshots every worker's counters.
func (p *Pool) Stats() []WorkerStats {
	out := make([]WorkerStats, len(p.workers))
	for i, w := range p.workers {
		w.mu.Lock()
		alive := !w.down
		w.mu.Unlock()
		out[i] = WorkerStats{
			Addr:         w.addr,
			Alive:        alive,
			Dispatched:   atomic.LoadInt64(&w.dispatched),
			Completed:    atomic.LoadInt64(&w.completed),
			Failures:     atomic.LoadInt64(&w.failures),
			Timeouts:     atomic.LoadInt64(&w.timeouts),
			PayloadBytes: atomic.LoadInt64(&w.payloadBytes),
			WireBytes:    atomic.LoadInt64(&w.wireBytes),
		}
	}
	return out
}

// Bind projects the pool onto one job as the scheduler's executor.
func (p *Pool) Bind(spec JobSpec) dnc.RemoteExecutor {
	return &boundExec{p: p, spec: spec}
}

// linkReply is what the reader pump delivers to a waiting call: a
// response (raw carries its flat-equivalent payload size) or the link
// failure that severed the connection.
type linkReply struct {
	resp *classResponse
	raw  int64
	err  error
}

// workerLink is one worker's long-lived connection state. Up to
// PoolOptions.Inflight classes multiplex over the connection, matched to
// their callers by sequence number through the pending map; one reader
// pump per connection delivers replies. gen numbers connections so a
// sever is idempotent and a pump for a dead connection can never touch
// its successor's state.
type workerLink struct {
	addr string

	// wmu serializes frame writes: two dispatchers share one link.
	wmu sync.Mutex

	mu      sync.Mutex
	conn    net.Conn
	gen     uint64 // connection generation, bumped by every successful dial
	seq     uint64
	down    bool // link failed; cleared by a successful redial
	pending map[uint64]chan linkReply

	dispatched   int64
	completed    int64
	failures     int64
	timeouts     int64
	payloadBytes int64
	wireBytes    int64
}

// boundExec is a Pool bound to one JobSpec.
type boundExec struct {
	p    *Pool
	spec JobSpec
}

// Slots exposes Inflight credit-slots per worker so the scheduler runs
// that many dispatchers against each link: while the worker computes one
// class, the link's other dispatcher is already shipping the next.
func (e *boundExec) Slots() int { return len(e.p.workers) * e.p.opts.Inflight }

func (e *boundExec) link(slot int) *workerLink {
	return e.p.workers[slot%len(e.p.workers)]
}

func (e *boundExec) Alive(slot int) bool {
	w := e.link(slot)
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.down
}

func (e *boundExec) Run(slot int, c dnc.RemoteClass, cancel <-chan struct{}) (*dnc.ClassOutcome, error) {
	w := e.link(slot)
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
	resp, err := w.call(req, cancel, e.p.opts)
	if err != nil {
		return nil, err
	}
	switch resp.Status {
	case statusOK:
		supports, derr := core.DecodeSupportList(resp.Supports, e.spec.Q)
		if derr != nil {
			// A payload the coordinator cannot decode means the link (or
			// the worker) is unreliable: sever it and let the class rerun
			// elsewhere rather than aborting the job.
			w.hardFail(derr)
			return nil, fmt.Errorf("distrib: worker %s: %v: %w", w.addr, derr, dnc.ErrWorkerLost)
		}
		return &dnc.ClassOutcome{
			Supports:      supports,
			Pairs:         resp.Pairs,
			PeakNodeBytes: resp.PeakNodeBytes,
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

// call performs one request/reply exchange on the multiplexed link.
func (w *workerLink) call(req *classRequest, cancel <-chan struct{}, opts PoolOptions) (*classResponse, error) {
	w.wmu.Lock()
	w.mu.Lock()
	if err := w.ensureLocked(opts); err != nil {
		w.down = true
		w.mu.Unlock()
		w.wmu.Unlock()
		atomic.AddInt64(&w.failures, 1)
		return nil, fmt.Errorf("distrib: worker %s: %v: %w", w.addr, err, dnc.ErrWorkerLost)
	}
	w.seq++
	req.Seq = w.seq
	gen := w.gen
	conn := w.conn
	ch := make(chan linkReply, 1)
	w.pending[req.Seq] = ch
	w.mu.Unlock()

	body := encodeClass(req)
	err := cluster.WriteFrame(conn, body)
	w.wmu.Unlock()
	if err != nil {
		w.sever(gen, err)
		atomic.AddInt64(&w.failures, 1)
		return nil, fmt.Errorf("distrib: worker %s: %v: %w", w.addr, err, dnc.ErrWorkerLost)
	}
	atomic.AddInt64(&w.dispatched, 1)
	atomic.AddInt64(&w.wireBytes, int64(len(body))+cluster.FrameHeaderLen)
	atomic.AddInt64(&w.payloadBytes, int64(len(body)))

	timer := time.NewTimer(opts.ClassTimeout)
	defer timer.Stop()
	var rep linkReply
	select {
	case rep = <-ch:
	case <-cancel:
		w.sever(gen, errors.New("job canceled"))
		rep = <-ch // sever delivered the error (or the pump beat it with a reply)
	case <-timer.C:
		if w.sever(gen, fmt.Errorf("no response within %v", opts.ClassTimeout)) {
			// This caller performed the teardown: the worker is wedged.
			atomic.AddInt64(&w.failures, 1)
			atomic.AddInt64(&w.timeouts, 1)
			return nil, fmt.Errorf("distrib: worker %s: %w", w.addr, dnc.ErrWorkerTimeout)
		}
		// Someone else already severed this connection (or the pump
		// answered at the wire); the buffered reply says which.
		rep = <-ch
	}
	if rep.err != nil {
		atomic.AddInt64(&w.failures, 1)
		return nil, fmt.Errorf("distrib: worker %s: %v: %w", w.addr, rep.err, dnc.ErrWorkerLost)
	}
	atomic.AddInt64(&w.completed, 1)
	atomic.AddInt64(&w.payloadBytes, rep.raw)
	return rep.resp, nil
}

// ensureLocked dials and completes the hello exchange when the link has
// no live connection. Caller holds w.wmu and w.mu.
func (w *workerLink) ensureLocked(opts PoolOptions) error {
	if w.conn != nil {
		return nil
	}
	conn, err := dialHello(w.addr, opts.DialTimeout)
	if err != nil {
		return err
	}
	w.conn = conn
	w.gen++
	w.down = false
	w.pending = make(map[uint64]chan linkReply)
	go w.readLoop(conn, w.gen)
	return nil
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

// readLoop is the link's reader pump: it decodes frames off one
// connection and delivers them to the pending calls by sequence number,
// severing the connection (which fails every pending call) on any read
// or decode error.
func (w *workerLink) readLoop(conn net.Conn, gen uint64) {
	for {
		body, err := cluster.ReadFrame(conn, cluster.MaxFrame)
		if err != nil {
			w.sever(gen, err)
			return
		}
		atomic.AddInt64(&w.wireBytes, int64(len(body))+cluster.FrameHeaderLen)
		resp, raw, err := decodeResult(body) // rejects every other type byte
		if err != nil {
			w.sever(gen, err)
			return
		}
		w.mu.Lock()
		var ch chan linkReply
		if w.gen == gen && w.pending != nil {
			ch = w.pending[resp.Seq]
			delete(w.pending, resp.Seq)
		}
		w.mu.Unlock()
		if ch != nil {
			ch <- linkReply{resp: resp, raw: raw}
		}
		// A reply with no pending call (a late answer for a timed-out
		// class raced the sever) is dropped; the sever closes the
		// connection either way.
	}
}

// sever tears down the link's current connection if it still is the
// generation the caller saw, failing every pending call with cause. It
// reports whether this call performed the teardown — the discriminator
// between "I timed this class out" and "the link died under me".
func (w *workerLink) sever(gen uint64, cause error) bool {
	w.mu.Lock()
	if w.gen != gen || w.conn == nil {
		w.mu.Unlock()
		return false
	}
	w.conn.Close()
	w.conn = nil
	w.down = true
	pend := w.pending
	w.pending = nil
	w.mu.Unlock()
	for _, ch := range pend {
		ch <- linkReply{err: cause}
	}
	return true
}

// hardFail severs the link from outside a call (undecodable payloads,
// protocol violations surfaced above the wire layer).
func (w *workerLink) hardFail(cause error) {
	w.mu.Lock()
	gen := w.gen
	w.mu.Unlock()
	w.sever(gen, cause)
	w.mu.Lock()
	w.down = true
	w.mu.Unlock()
	atomic.AddInt64(&w.failures, 1)
}
