// Package jobs is the serving layer's job manager: a bounded admission
// queue in front of the enumeration drivers, per-job lifecycle tracking
// with streaming progress events, in-flight coalescing of identical
// requests, and one content-addressed result cache.
//
// The manager turns the one-shot library call into a long-lived service
// substrate: submissions are admitted (or rejected when the queue is
// full), identical concurrent submissions share a single driver run
// (keyed by elmocomp.RequestKey), completed mode sets are stored as
// EncodeSupports payloads beside their run's reduction in one
// byte-budget LRU, and cancellation rides the same first-trip-wins abort
// latch the cluster substrate uses — a DELETE trips the job's latch, the
// driver unwinds at its next row boundary or collective, and the worker
// slot frees for the next job.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"elmocomp"
	"elmocomp/internal/cluster"
	"elmocomp/internal/distrib"
	"elmocomp/internal/lru"
)

// The manager's failure vocabulary.
var (
	// ErrQueueFull rejects a submission when the bounded admission queue
	// has no free slot — the service's backpressure signal.
	ErrQueueFull = errors.New("jobs: admission queue full")
	// ErrResidentFull rejects a submission whose memory-budget
	// reservation would push the sum of all admitted jobs' budgets past
	// Config.MaxResidentBytes — the memory-side backpressure signal.
	ErrResidentFull = errors.New("jobs: resident memory budget exhausted")
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("jobs: manager draining")
	// ErrNotFound marks an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrNotDone is returned by Job.Result before the job completed.
	ErrNotDone = errors.New("jobs: job not done")
	// ErrCanceledByClient is the latch cause recorded for DELETE-style
	// cancellations.
	ErrCanceledByClient = errors.New("jobs: canceled by client request")
)

// Request is one unit of work: a parsed network plus the computation
// configuration. Config.Progress is owned by the manager (progress lines
// become job events) and must be nil.
type Request struct {
	Network *elmocomp.Network
	Config  elmocomp.Config
}

// ComputeFunc runs one request to completion or cancellation. The
// default is elmocomp.ComputeEFMsCancel; tests substitute controllable
// fakes.
type ComputeFunc func(req Request, cancel <-chan struct{}) (*elmocomp.Result, error)

// Config sizes the manager.
type Config struct {
	// Queue is the admission queue capacity: jobs admitted but not yet
	// running. Submissions beyond it fail fast with ErrQueueFull.
	// Default 64.
	Queue int
	// Workers is the number of concurrently running driver jobs.
	// Default 2. Each driver run may itself use many cores (the
	// request's Workers/Nodes/GroupConcurrency options); this bounds
	// cross-job concurrency, not intra-job parallelism.
	Workers int
	// CacheBytes is the result cache's budget in resident bytes: an
	// entry costs its payload plus the reduction it decodes over
	// (Result.ShellBytes). Bounded on-demand streams share it, one entry
	// per request family. 0 means 64 MiB; negative disables caching,
	// serving a shorter stream by truncation included.
	CacheBytes int64
	// PrefixCacheBytes is ignored: bounded on-demand streams live in the
	// result cache under CacheBytes. The field stays so that callers
	// setting it by name still compile.
	PrefixCacheBytes int64
	// KeepJobs bounds how many terminal jobs stay addressable by ID
	// (results can hold megabytes of modes; without a bound the jobs map
	// grows forever). Oldest-finished evict first. 0 means 256; negative
	// disables eviction.
	KeepJobs int
	// MaxResidentBytes bounds the sum of the memory budgets of all
	// queued and running jobs: admission by reservation. A submission
	// reserves its effective budget (Config.MemBudgetBytes, or
	// DefaultMemBudget when unset); a job with NO budget reserves the
	// full allowance, since nothing bounds its residency. Submissions
	// that do not fit fail fast with ErrResidentFull. 0 disables the
	// check.
	MaxResidentBytes int64
	// DefaultMemBudget is applied to requests that set no
	// MemBudgetBytes of their own. 0 leaves them unbudgeted.
	DefaultMemBudget int64
	// SpillDir overrides every job's spill directory. Operator
	// configuration — remote clients cannot choose server filesystem
	// paths.
	SpillDir string
	// Remote, when set, makes the manager a coordinator: every admitted
	// divide-and-conquer job dispatches its class queue onto this worker
	// pool (elmocomp.ComputeEFMsDistributed); other algorithms still run
	// locally. Ignored when Compute is set.
	Remote *distrib.Pool
	// Compute overrides the driver entry point (tests). Nil means
	// elmocomp.ComputeEFMsCancel, or the distributed driver when Remote
	// is set.
	Compute ComputeFunc
}

// Counters are the manager's cumulative run counters, exported on /varz
// and asserted by the cache/coalescing tests: a cache hit must not move
// RunsStarted.
type Counters struct {
	Submitted int64 `json:"submitted"`
	Coalesced int64 `json:"coalesced"`
	// CacheHits counts hits on an entry made under the submission's own
	// request key; PrefixHits counts every other hit, an on-demand
	// submission served from a stream its family stored under another k.
	CacheHits    int64 `json:"cache_hits"`
	PrefixHits   int64 `json:"prefix_hits"`
	Rejected     int64 `json:"rejected"`
	RunsStarted  int64 `json:"runs_started"`
	RunsDone     int64 `json:"runs_done"`
	RunsFailed   int64 `json:"runs_failed"`
	RunsCanceled int64 `json:"runs_canceled"`
	// Class-queue counter totals summed over completed divide-and-conquer
	// runs (elmocomp.SchedulerStats).
	SchedEnqueued   int64 `json:"sched_enqueued"`
	SchedSteals     int64 `json:"sched_steals"`
	SchedResplits   int64 `json:"sched_resplits"`
	SchedUnresolved int64 `json:"sched_unresolved"`
	// Remote-dispatch totals summed over completed coordinator runs
	// (zero unless Config.Remote is set): classes completed on workers,
	// classes re-enqueued after a lost worker, and the subset of losses
	// declared by the per-class deadline.
	RemoteClasses  int64 `json:"remote_classes"`
	RemoteRequeues int64 `json:"remote_requeues"`
	RemoteTimeouts int64 `json:"remote_timeouts"`
	// Between-rounds store totals summed over completed runs
	// (elmocomp.StoreStats): how often surviving mode sets were spilled
	// to disk, and the memory-budget re-splits.
	StoreSpills     int64 `json:"store_spills"`
	StoreSpillBytes int64 `json:"store_spill_bytes"`
	MemResplits     int64 `json:"mem_resplits"`
}

// Stats is the /varz snapshot.
type Stats struct {
	Counters Counters  `json:"counters"`
	Cache    lru.Stats `json:"cache"`
	Queued   int       `json:"queued"`
	Running  int       `json:"running"`
	Jobs     int       `json:"jobs"`
	// ResidentBytes is the sum of the memory-budget reservations of all
	// queued and running jobs — the in-flight resident-bytes gauge the
	// MaxResidentBytes admission check compares against.
	ResidentBytes int64 `json:"resident_bytes"`
	Draining      bool  `json:"draining"`
	// Workers snapshots the coordinator's per-worker link counters
	// (Config.Remote only; omitted otherwise).
	Workers []distrib.WorkerStats `json:"workers,omitempty"`
	// RemotePayloadBytes / RemoteWireBytes are the fleet-total logical
	// payload vs framed wire bytes of the class data plane, summed over
	// Workers — they differ by framing and the result frames' header
	// fields, nothing else.
	RemotePayloadBytes int64 `json:"remote_payload_bytes,omitempty"`
	RemoteWireBytes    int64 `json:"remote_wire_bytes,omitempty"`
}

// stored is one cached result: the EncodeSupports payload, the
// producing run's fingerprint, and the run's shell — its network and
// reduction with no modes. A hit decodes the payload over the shell:
// every request under one key reduces identically, so a hit pays no exact
// preprocessing. The fingerprint is re-verified against the decoded
// result before serving, making corruption detectable end to end.
type stored struct {
	payload     []byte
	fingerprint uint64
	shell       *elmocomp.Result
	// shellBytes is the shell's resident size, measured once when the
	// entry is made: the cache's cost function must not change its mind.
	shellBytes int64
	// key is the request key of the run that made the entry, which tells
	// a cache hit from a prefix hit.
	key string
	// modes is the stream's length; complete says the payload is the
	// whole answer (a batch result, or an on-demand run that exhausted
	// its family) and so serves any k.
	modes    int
	complete bool
}

// bytes is what an entry keeps resident: the payload and the reduction
// it pins, however small the payload.
func (s stored) bytes() int64 { return int64(len(s.payload)) + s.shellBytes }

// decode rebuilds the stored result over its shell and reports whether
// it still has the producing run's fingerprint.
func (s stored) decode() (*elmocomp.Result, bool) {
	res, err := s.shell.WithEncodedSupports(s.payload)
	return res, err == nil && res.Fingerprint() == s.fingerprint
}

// upgrades is the one store rule: a held entry is replaced only by a
// complete one, or by a longer stream of the same family.
func (s stored) upgrades(old stored) bool {
	return !old.complete && (s.complete || s.modes > old.modes)
}

// cacheSlot returns where a request's result is cached and the stream
// bound k it asks of that entry (0: the whole answer). A bounded
// on-demand request shares its family's one entry
// (elmocomp.OnDemandPrefixKey); every other request has its own key's.
func cacheSlot(req Request, key string) (string, int) {
	if k := req.Config.MaxModes; req.Config.Backend == elmocomp.OnDemandBackend && k > 0 {
		return elmocomp.OnDemandPrefixKey(req.Network, req.Config), k
	}
	return key, 0
}

// Manager owns the job lifecycle. Construct with New, stop with
// Shutdown.
type Manager struct {
	cfg     Config
	compute ComputeFunc
	// cache is the one content-addressed result cache, LRU-evicted under
	// a byte budget. Identical networks are re-analyzed constantly in
	// practice (knockout screens resubmit the same wild-type enumeration
	// dozens of times), so a hit converts minutes of driver compute into a
	// byte copy. A batch result lives under its request key. A bounded
	// on-demand stream lives under its request FAMILY's key (cacheSlot):
	// the ranked stream is a pure function of (network, config,
	// objective), so a k-mode run IS the first k modes of every longer
	// run, and the family's one entry holds the longest stream seen so
	// far, in emission order.
	cache *lru.Cache[stored]
	queue chan *Job

	mu       sync.Mutex
	jobs     map[string]*Job
	inflight map[string]*Job // request key → queued/running job
	running  int
	queued   int
	resident int64    // sum of admitted jobs' memory-budget reservations
	retired  []string // terminal job IDs in finish order, oldest first
	draining bool
	closed   bool
	nextID   int64
	counters Counters

	wg sync.WaitGroup
}

// New starts a manager with cfg.Workers worker goroutines.
func New(cfg Config) *Manager {
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.KeepJobs == 0 {
		cfg.KeepJobs = 256
	}
	m := &Manager{
		cfg:      cfg,
		compute:  cfg.Compute,
		cache:    lru.New(cfg.CacheBytes, stored.bytes),
		queue:    make(chan *Job, cfg.Queue),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
	if m.compute == nil {
		pool := cfg.Remote
		m.compute = func(req Request, cancel <-chan struct{}) (*elmocomp.Result, error) {
			if pool != nil && req.Config.Algorithm == elmocomp.DivideAndConquer {
				return elmocomp.ComputeEFMsDistributed(req.Network, req.Config, cancel, pool)
			}
			return elmocomp.ComputeEFMsCancel(req.Network, req.Config, cancel)
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit admits a request. The fast paths return without queueing: an
// identical in-flight job is joined (coalesced), a cached result births
// the job directly in the done state. Otherwise the job takes a queue
// slot or the submission fails with ErrQueueFull.
func (m *Manager) Submit(req Request) (*Job, error) {
	if req.Network == nil {
		return nil, errors.New("jobs: request has no network")
	}
	if req.Config.Progress != nil {
		return nil, errors.New("jobs: Request.Config.Progress is owned by the manager")
	}
	if req.Config.OnMode != nil {
		return nil, errors.New("jobs: Request.Config.OnMode is owned by the manager (modes stream as job events)")
	}
	// Operator memory policy. Both fields are result-neutral (excluded
	// from the request key), so coalescing and the cache are unaffected.
	if req.Config.MemBudgetBytes == 0 {
		req.Config.MemBudgetBytes = m.cfg.DefaultMemBudget
	}
	if m.cfg.SpillDir != "" {
		req.Config.SpillDir = m.cfg.SpillDir
	}
	key := elmocomp.RequestKey(req.Network, req.Config)

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	m.counters.Submitted++
	if j := m.inflight[key]; j != nil {
		j.mu.Lock()
		j.coalesce++
		j.mu.Unlock()
		m.counters.Coalesced++
		m.mu.Unlock()
		return j, nil
	}
	m.mu.Unlock()

	// Cache probe outside the manager lock: a hit decodes its payload and
	// re-hashes every support, too heavy for a lock held by every
	// submission. It does not reduce the network: the entry's shell holds
	// the run's reduction, which costs ~20 ms of exact arithmetic on the
	// benchmark's yeast1 knock-outs against a ~1.4 ms hit (2-CPU x86-64).
	// A family's stream longer than k serves this k by truncation; one
	// shorter than k cannot, and the run that follows upgrades it. The
	// decode runs inside the lookup, under the cache's own lock, so a
	// lookup that serves nothing counts as a miss and cache.hits equals
	// cache_hits + prefix_hits.
	ckey, k := cacheSlot(req, key)
	var res *elmocomp.Result
	var served, poisoned bool
	hit, ok := m.cache.GetIf(ckey, func(s stored) bool {
		if s.complete || k > 0 && s.modes >= k {
			res, served = s.decode()
			poisoned = !served
		}
		return served
	})
	if ok {
		fp := hit.fingerprint
		if k > 0 && res.Len() > k {
			res.Truncate(k)
			fp = res.Fingerprint()
		}
		return m.adoptCacheHit(key, req, res, fp, hit.key)
	}
	if poisoned {
		// Stale format or corruption: drop the entry and run.
		m.cache.Remove(ckey)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	// Re-check coalescing: an identical submission may have landed while
	// the cache probe ran unlocked.
	if j := m.inflight[key]; j != nil {
		j.mu.Lock()
		j.coalesce++
		j.mu.Unlock()
		m.counters.Coalesced++
		return j, nil
	}
	// Admission by reservation: the job's effective memory budget (or
	// the full allowance when it has none) must fit under
	// MaxResidentBytes alongside every already-admitted job's.
	var reserve int64
	if m.cfg.MaxResidentBytes > 0 {
		reserve = req.Config.MemBudgetBytes
		if reserve <= 0 || reserve > m.cfg.MaxResidentBytes {
			reserve = m.cfg.MaxResidentBytes
		}
		if m.resident+reserve > m.cfg.MaxResidentBytes {
			m.counters.Rejected++
			return nil, fmt.Errorf("%w (%d of %d bytes reserved)",
				ErrResidentFull, m.resident, m.cfg.MaxResidentBytes)
		}
	}
	j := newJob(m.newIDLocked(), key, req)
	select {
	case m.queue <- j:
	default:
		m.counters.Rejected++
		return nil, fmt.Errorf("%w (%d slots)", ErrQueueFull, m.cfg.Queue)
	}
	j.reserved = reserve
	m.resident += reserve
	m.queued++
	m.jobs[j.ID] = j
	m.inflight[key] = j
	return j, nil
}

// adoptCacheHit registers a job that was born done from a cached
// payload; madeBy is the request key of the run that stored it, and a
// hit on another key's entry is a prefix hit. It never occupies a queue
// slot or a worker.
func (m *Manager) adoptCacheHit(key string, req Request, res *elmocomp.Result, fp uint64, madeBy string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	j := newJob(m.newIDLocked(), key, req)
	j.mu.Lock()
	j.cached = true
	j.mu.Unlock()
	kind, hits := "cache hit", &m.counters.CacheHits
	if madeBy != key {
		kind, hits = "prefix hit", &m.counters.PrefixHits
	}
	*hits++
	j.finalize(StateDone, res, fp, nil, fmt.Sprintf("%s: %d modes, fingerprint %016x", kind, res.Len(), fp))
	m.jobs[j.ID] = j
	m.retireLocked(j)
	return j, nil
}

// retireLocked records a terminal job in finish order and evicts the
// oldest terminal jobs beyond the retention bound. Caller holds m.mu.
func (m *Manager) retireLocked(j *Job) {
	if m.cfg.KeepJobs < 0 {
		return
	}
	m.retired = append(m.retired, j.ID)
	for len(m.retired) > m.cfg.KeepJobs {
		delete(m.jobs, m.retired[0])
		m.retired = m.retired[1:]
	}
}

func (m *Manager) newIDLocked() string {
	m.nextID++
	return fmt.Sprintf("j%06d", m.nextID)
}

// Job returns a job by ID.
func (m *Manager) Job(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j := m.jobs[id]; j != nil {
		return j, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
}

// Cancel trips the job's abort latch. Queued jobs finalize immediately
// and release their request key; running jobs unwind through the driver
// and free their worker slot when the compute call returns.
func (m *Manager) Cancel(id string) error {
	j, err := m.Job(id)
	if err != nil {
		return err
	}
	wasQueued, changed := j.Cancel(ErrCanceledByClient)
	if !changed {
		return nil // already terminal: cancel is idempotent
	}
	if wasQueued {
		// The job finalized without ever reaching a worker: its
		// admission bookkeeping unwinds here instead of in runJob.
		m.mu.Lock()
		if m.inflight[j.Key] == j {
			delete(m.inflight, j.Key)
		}
		m.queued--
		m.resident -= j.reserved
		m.counters.RunsCanceled++
		m.retireLocked(j)
		m.mu.Unlock()
	}
	return nil
}

// worker runs queued jobs until the queue closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob executes one job through the compute entry point and finalizes
// its lifecycle, cache entry and counters.
func (m *Manager) runJob(j *Job) {
	if !j.tryStart() {
		// Canceled while queued; its bookkeeping ran in Cancel.
		return
	}
	m.mu.Lock()
	m.queued--
	m.running++
	m.counters.RunsStarted++
	m.mu.Unlock()

	req := j.req
	req.Config.Progress = j.Progress
	if req.Config.Backend == elmocomp.OnDemandBackend {
		// Modes stream onto the job's event channel as they are found.
		req.Config.OnMode = j.Mode
	}
	res, err := m.compute(req, j.latch.Done())

	var fp uint64
	var state State
	var note string
	switch {
	case err == nil:
		fp = res.Fingerprint()
		state = StateDone
		note = fmt.Sprintf("%d modes, fingerprint %016x", res.Len(), fp)
		ckey, k := cacheSlot(req, j.Key)
		run := stored{payload: res.EncodeSupports(), fingerprint: fp, shell: res.Shell(), shellBytes: res.ShellBytes(),
			key: j.Key, modes: res.Len(), complete: k == 0 || res.OnDemand != nil && res.OnDemand.Exhausted}
		m.cache.PutIf(ckey, run, run.upgrades)
		if k == 0 && req.Config.Backend == elmocomp.OnDemandBackend {
			// An exhaustive stream also completes its family: every later
			// k is served from it.
			m.cache.PutIf(elmocomp.OnDemandPrefixKey(req.Network, req.Config), run, run.upgrades)
		}
	case j.latch.Cause() != nil:
		// The latch tripped and the driver unwound: report the cancel
		// cause, not the ErrAborted/ErrCanceled cascade it triggered.
		state = StateCanceled
		err = &cluster.AbortError{Cause: j.latch.Cause()}
	default:
		state = StateFailed
	}
	// Manager bookkeeping first, finalize last, in one critical section:
	// finalize releases Job.Wait and the event stream's terminal event,
	// and a client that sees its job terminal may read Stats or resubmit
	// at once — it must find the counters bumped and the in-flight entry
	// gone, not coalesce onto a finished job.
	m.mu.Lock()
	if m.inflight[j.Key] == j {
		delete(m.inflight, j.Key)
	}
	m.running--
	switch state {
	case StateDone:
		m.counters.RunsDone++
	case StateCanceled:
		m.counters.RunsCanceled++
	default:
		m.counters.RunsFailed++
	}
	m.resident -= j.reserved
	if res != nil {
		m.counters.StoreSpills += res.Store.Spills
		m.counters.StoreSpillBytes += res.Store.SpillBytes
	}
	if res != nil && res.Scheduler != nil {
		m.counters.MemResplits += res.Scheduler.MemResplits
		m.counters.SchedEnqueued += res.Scheduler.Enqueued
		m.counters.SchedSteals += res.Scheduler.Steals
		m.counters.SchedResplits += res.Scheduler.Resplits
		m.counters.SchedUnresolved += res.Scheduler.Unresolved
		m.counters.RemoteClasses += res.Scheduler.RemoteClasses
		m.counters.RemoteRequeues += res.Scheduler.RemoteRequeues
		m.counters.RemoteTimeouts += res.Scheduler.RemoteTimeouts
	}
	m.retireLocked(j)
	j.finalize(state, res, fp, err, note)
	m.mu.Unlock()
}

// Stats snapshots the manager gauges and counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		Counters:      m.counters,
		Cache:         m.cache.Stats(),
		Queued:        m.queued,
		Running:       m.running,
		Jobs:          len(m.jobs),
		ResidentBytes: m.resident,
		Draining:      m.draining,
	}
	if m.cfg.Remote != nil {
		s.Workers = m.cfg.Remote.Stats()
		for _, ws := range s.Workers {
			s.RemotePayloadBytes += ws.PayloadBytes
			s.RemoteWireBytes += ws.WireBytes
		}
	}
	return s
}

// Draining reports whether the manager has begun shutdown.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain stops admissions and waits for every queued and running job to
// reach a terminal state. When ctx ends first, the remaining jobs are
// canceled and waited for (the drivers unwind promptly on the latch).
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()

	ctxDone := ctx.Done()
	for {
		m.mu.Lock()
		idle := m.queued == 0 && m.running == 0
		var pending []*Job
		if !idle {
			for _, j := range m.inflight {
				pending = append(pending, j)
			}
		}
		m.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctxDone:
			// Deadline passed: cancel the stragglers, then keep waiting
			// for the drivers to unwind (nil ctxDone blocks, so this
			// branch fires once).
			ctxDone = nil
			for _, j := range pending {
				// Route through Manager.Cancel so queued jobs release
				// their bookkeeping.
				_ = m.Cancel(j.ID)
			}
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Shutdown drains and then stops the workers. The manager accepts no
// submissions afterwards.
func (m *Manager) Shutdown(ctx context.Context) error {
	err := m.Drain(ctx)
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()
	m.wg.Wait()
	return err
}
