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

// wireCompressMin is the smallest flat support payload worth running
// through the EFMC compressor: below it the codec's block headers eat
// the win.
const wireCompressMin = 512

// helloTimeout bounds the hello exchange on an accepted connection, so a
// peer that connects and says nothing cannot pin a goroutine and a
// socket until Close. The coordinator bounds its half with DialTimeout.
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
	// DelayPerClass, when > 0, sleeps before executing each class —
	// a test hook making compute slow enough to observe transfer
	// pipelining deterministically.
	DelayPerClass time.Duration
	// Logf, when set, receives one line per served class.
	Logf func(format string, args ...interface{})

	// CrashOnClass, when > 0, injects a worker crash for tests: the
	// request that brings the lifetime class count to this value is
	// swallowed — the worker closes every connection and its listener
	// without responding, like a kill -9.
	CrashOnClass int
	// WedgeOnClass, when > 0, injects a wedged worker: the matching
	// request is held forever (until the peer disconnects), exercising
	// the coordinator's per-class deadline.
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

	jobs *lru.Cache[*jobEntry] // by job key

	reqCount     int64 // lifetime class requests (fault-injection trigger)
	served       int64
	maxPipelined int64 // high-water of classes queued on one connection
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
		jobs:         newJobStore(jobStoreSize),
	}, nil
}

// Addr returns the bound listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Serve accepts coordinator connections until Close. Each connection
// executes classes one at a time (pipelined requests queue); concurrent
// connections run concurrently.
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
	// MaxPipelined is the high-water count of classes in flight on one
	// connection (the one executing plus those queued behind it).
	MaxPipelined int64 `json:"max_pipelined,omitempty"`
}

// Counters snapshots the served-class counters.
func (w *Worker) Counters() WorkerCounters {
	return WorkerCounters{
		Served:       atomic.LoadInt64(&w.served),
		MaxPipelined: atomic.LoadInt64(&w.maxPipelined),
	}
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
	// A refusal is written before closing, so the coordinator can
	// report why.
	answer := hello{Proto: protoVersion}
	if err := peer.mismatch("coordinator"); err != nil {
		answer.Error = err.Error()
	}
	if err := writeHello(c, answer); err != nil || answer.Error != "" {
		return
	}
	c.SetDeadline(time.Time{})

	// Reader pump: decodes frames into a buffered queue so the
	// coordinator's in-flight credit can ship the next class while this
	// connection computes the current one. The pump is the one blocked
	// on the socket, so a severed connection is noticed mid-class and
	// the compute canceled.
	reqs := make(chan *classRequest, 16)
	closed := make(chan struct{}) // pump saw a read error (peer gone)
	done := make(chan struct{})   // this serving loop exited
	defer close(done)
	// inflight counts classes received but not yet answered on this
	// connection; its high-water is the observed pipelining depth.
	var inflight int64
	go func() {
		defer close(closed)
		for {
			body, err := cluster.ReadFrame(c, cluster.MaxFrame)
			if err != nil {
				return
			}
			req, derr := decodeClass(body)
			if derr != nil {
				return // garbage after a good hello: drop the connection
			}
			depth := atomic.AddInt64(&inflight, 1)
			for {
				cur := atomic.LoadInt64(&w.maxPipelined)
				if depth <= cur || atomic.CompareAndSwapInt64(&w.maxPipelined, cur, depth) {
					break
				}
			}
			select {
			case reqs <- &req:
			case <-done:
				return
			}
		}
	}()

	for {
		var req *classRequest
		select {
		case req = <-reqs:
		case <-closed:
			return
		}
		n := atomic.AddInt64(&w.reqCount, 1)
		if w.opts.CrashOnClass > 0 && n >= int64(w.opts.CrashOnClass) {
			w.Close() // injected crash: vanish without responding
			return
		}
		if w.opts.WedgeOnClass > 0 && n >= int64(w.opts.WedgeOnClass) {
			<-closed // injected wedge: hold the class until the peer gives up
			return
		}
		if w.opts.DelayPerClass > 0 {
			select {
			case <-time.After(w.opts.DelayPerClass):
			case <-closed:
				return
			}
		}
		resp := w.exec(req, closed)
		if err := writeReply(c, resp); err != nil {
			return
		}
		atomic.AddInt64(&inflight, -1)
	}
}

// writeReply ships one response. A large support payload goes through
// the EFMC compressor and travels compressed when that is actually
// smaller; it stays flat EFMS otherwise (the codec magics disambiguate
// at the receiver).
func writeReply(c net.Conn, resp *classResponse) error {
	payload := resp.Supports
	rawLen := len(payload)
	if rawLen >= wireCompressMin {
		if set, err := core.DecodeModeSet(payload); err == nil && set.Q() < 1<<16 {
			if enc := core.EncodeCompressed(set); len(enc) < rawLen {
				payload = enc
			}
		}
	}
	return cluster.WriteFrame(c, encodeResult(resp, payload, rawLen))
}

// exec runs one class. Everything it runs under comes from the frame;
// the memo only spares re-deriving what the frame's network determines.
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
	start := time.Now()
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
		resp.Supports = core.EncodeSupportList(out.Supports, red.N.Cols())
	}
	if w.opts.Logf != nil {
		w.opts.Logf("class %d/%v: %s, %d modes in %v",
			req.Class, req.Partition, resp.Status, len(out.Supports), time.Since(start).Round(time.Millisecond))
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
