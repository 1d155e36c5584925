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
	"elmocomp/internal/lru"
	"elmocomp/internal/model"
	"elmocomp/internal/reduce"
)

// helloTimeout bounds the hello exchange on an accepted connection, so a
// peer that connects and says nothing cannot pin a goroutine and a
// socket until Close. The coordinator bounds its half with dialTimeout.
const helloTimeout = 5 * time.Second

// jobStoreSize bounds the reduction memo by count: the jobs a worker
// keeps a parsed and reduced network for. A class arriving for an evicted
// (or never-seen) key parses and reduces the network its frame carries.
const jobStoreSize = 16

// WorkerOptions configure a worker process.
type WorkerOptions struct {
	// SpillDir is the worker's own mode-store spill directory (operator
	// configuration, never taken from the wire — the same rule efmd's
	// HTTP API enforces).
	SpillDir string
	// DelayPerClass, when > 0, sleeps before executing each class,
	// inside the run slot and the class's clock — a test hook making
	// compute slow enough to observe scheduling deterministically.
	DelayPerClass time.Duration
	// Logf, when set, receives one line per served class and one per
	// refused connection.
	Logf func(format string, args ...interface{})

	// CrashOnClass, when > 0, injects a worker crash for tests: the
	// request that brings the lifetime class count to this value is
	// swallowed — the worker closes every connection and its listener
	// without responding, like a kill -9.
	CrashOnClass int
	// WedgeOnClass, when > 0, injects a wedged worker: the matching
	// request holds the run slot forever (until its peer disconnects),
	// exercising the coordinator's per-class deadline.
	WedgeOnClass int
}

// Worker serves divide-and-conquer classes over the distrib protocol:
// the `efmd -worker` role. It is stateless across classes apart from one
// bounded memo of network reductions, each a function of the frame that
// built it, so a crashed worker loses nothing but time.
type Worker struct {
	opts WorkerOptions
	ln   net.Listener
	// helloTimeout is the package constant; a field so the silent-peer
	// test need not wait the full bound.
	helloTimeout time.Duration

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	// run is the one-class run slot: connections run concurrently, but
	// their classes take turns.
	run chan struct{}

	jobs *lru.Cache[*jobEntry] // by job key

	reqCount int64 // lifetime classes run (fault-injection trigger)
	served   int64
}

// NewWorker listens on addr (host:port; ":0" picks a free port).
func NewWorker(addr string, opts WorkerOptions) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Worker{
		opts:         opts,
		ln:           ln,
		helloTimeout: helloTimeout,
		conns:        make(map[net.Conn]struct{}),
		run:          make(chan struct{}, 1),
		jobs:         newJobStore(jobStoreSize),
	}, nil
}

// Addr returns the bound listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Serve accepts coordinator connections until Close. Each connection
// carries one class at a time, and the worker runs one class at a time:
// a class arriving while another runs waits for the run slot.
func (w *Worker) Serve() error {
	for {
		c, err := w.ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			c.Close()
			return nil
		}
		w.conns[c] = struct{}{}
		w.mu.Unlock()
		go w.serveConn(c)
	}
}

// Close stops the listener and severs every connection. In-flight
// computations observe the severed connection through their cancel
// channel and unwind.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	err := w.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}

// WorkerCounters are the worker's own service counters.
type WorkerCounters struct {
	Served int64 `json:"served"`
}

// Counters snapshots the served-class counters.
func (w *Worker) Counters() WorkerCounters {
	return WorkerCounters{Served: atomic.LoadInt64(&w.served)}
}

func (w *Worker) serveConn(c net.Conn) {
	defer func() {
		w.mu.Lock()
		delete(w.conns, c)
		w.mu.Unlock()
		c.Close()
	}()

	c.SetDeadline(time.Now().Add(w.helloTimeout))
	peer, err := readHello(c)
	if err != nil {
		return
	}
	// A refusal is logged, then written before closing, so both sides
	// can report why.
	answer := hello{Proto: protoVersion}
	if err := peer.mismatch("coordinator"); err != nil {
		answer.Error = err.Error()
		if w.opts.Logf != nil {
			w.opts.Logf("refused %s: %s", c.RemoteAddr(), answer.Error)
		}
	}
	if err := writeHello(c, answer); err != nil || answer.Error != "" {
		return
	}
	c.SetDeadline(time.Time{})

	// Each class runs beside this loop, which goes back to waiting on
	// the socket, so a peer that closes the connection mid-class is
	// noticed and its class canceled. A connection carries one class at
	// a time: a second class before the first is answered ends it.
	closed := make(chan struct{})
	defer close(closed)
	var busy atomic.Bool
	for {
		body, err := cluster.ReadFrame(c, cluster.MaxFrame)
		if err != nil {
			return
		}
		req, err := decodeClass(body)
		if err != nil {
			return // garbage after a good hello: drop the connection
		}
		if !busy.CompareAndSwap(false, true) {
			return
		}
		go func() {
			resp := w.serve(&req, closed)
			busy.Store(false)
			if resp != nil && cluster.WriteFrame(c, encodeResult(resp)) != nil {
				c.Close() // a reply that cannot go out ends the connection
			}
		}()
	}
}

// serve waits for the run slot, runs the class and times it, from
// taking the slot to the reply. It returns nil when the class goes
// unanswered: its peer left, or a fault hook swallowed it.
func (w *Worker) serve(req *classRequest, closed <-chan struct{}) *classResponse {
	select {
	case w.run <- struct{}{}:
	case <-closed:
		return nil
	}
	defer func() { <-w.run }()
	start := time.Now()
	n := atomic.AddInt64(&w.reqCount, 1)
	if w.opts.CrashOnClass > 0 && n >= int64(w.opts.CrashOnClass) {
		w.Close() // injected crash: vanish without responding
		return nil
	}
	if w.opts.WedgeOnClass > 0 && n >= int64(w.opts.WedgeOnClass) {
		<-closed // injected wedge: hold the run slot until the peer gives up
		return nil
	}
	if w.opts.DelayPerClass > 0 {
		select {
		case <-time.After(w.opts.DelayPerClass):
		case <-closed:
			return nil
		}
	}
	resp := w.exec(req, closed)
	resp.Seconds = time.Since(start).Seconds()
	return resp
}

// exec runs one class and returns its response, carrying the class's
// supports when it completed. Everything it runs under comes from the
// frame; the memo only spares re-deriving what the frame's network
// determines.
func (w *Worker) exec(req *classRequest, cancel <-chan struct{}) *classResponse {
	resp := &classResponse{Seq: req.Seq}
	red, err := w.reduced(req)
	if err != nil {
		resp.Status = statusError
		resp.Error = err.Error()
		return resp
	}
	// The decoded options carry what the coordinator's local groups run
	// under; only what must never come off the wire is set here.
	popts := req.Exec
	popts.Cancel = cancel
	popts.Core.SpillDir = w.opts.SpillDir
	popts.Core.StrictMemBudget = req.StrictMem
	out, err := dnc.ExecClass(red.N, red.Reversibilities(), req.Partition, req.Class, popts)
	if err != nil {
		switch {
		case errors.Is(err, core.ErrMemBudget):
			resp.Status = statusMemBudget
		case errors.Is(err, core.ErrBudget):
			resp.Status = statusBudget
		default:
			resp.Status = statusError
			resp.Error = err.Error()
		}
		return resp
	}
	atomic.AddInt64(&w.served, 1)
	if out.Skipped {
		resp.Status = statusSkipped
	} else {
		resp.Status = statusOK
		resp.Pairs = out.Pairs
		resp.PeakNodeBytes = out.PeakNodeBytes
		resp.Phases = out.Phases
		resp.Supports = core.EncodeSupportList(out.Supports, red.N.Cols())
	}
	if w.opts.Logf != nil {
		w.opts.Logf("class %d/%v: %s, %d modes in %v", req.Class, req.Partition, resp.Status,
			len(out.Supports), time.Duration(out.Seconds*float64(time.Second)).Round(time.Millisecond))
	}
	return resp
}

// jobEntry is what a worker remembers about one job key: the reduction
// of a network, computed by the first class to need it, and the two
// inputs that determine it — every class of one job ships the same
// canonical network text, so classes of interleaved jobs never re-reduce.
type jobEntry struct {
	network        string
	keepDuplicates bool

	once sync.Once
	red  *reduce.Reduced
	err  error
}

func newJobStore(size int64) *lru.Cache[*jobEntry] {
	return lru.New(size, func(*jobEntry) int64 { return 1 })
}

// reduced returns the reduction of the frame's network: the memo's, when
// the key's entry was built from this network text and keep-duplicates
// bit, and otherwise a fresh entry's that takes the key over.
func (w *Worker) reduced(req *classRequest) (*reduce.Reduced, error) {
	job, ok := w.jobs.Get(req.Key)
	if !ok || job.network != req.Network || job.keepDuplicates != req.KeepDuplicates {
		job = &jobEntry{network: req.Network, keepDuplicates: req.KeepDuplicates}
		w.jobs.Put(req.Key, job)
	}
	job.once.Do(func() {
		n, err := model.ParseString(job.network)
		if err != nil {
			job.err = fmt.Errorf("parse network: %w", err)
			return
		}
		job.red, err = reduce.Network(n, reduce.Options{MergeDuplicates: !job.keepDuplicates})
		if err != nil {
			job.err = fmt.Errorf("reduce network: %w", err)
		}
	})
	return job.red, job.err
}
