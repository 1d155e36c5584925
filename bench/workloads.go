package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"elmocomp"
	"elmocomp/internal/jobs"
	"elmocomp/internal/server"
)

// workload is one of the benchmark's six input sets. run is the
// untraced pass, measured end to end through the public entry points;
// traced repeats it stage by stage with spans around every call and
// adds the layer measurements.
type workload struct {
	Name string
	Why  string
	// input is the network whose key names the run's input variant in
	// reports and keys the pinned counters.
	input  func(p *profile) network
	run    func(c *child) error
	traced func(c *child) error
}

func ddInput(p *profile) network    { return p.dd }
func ko3Input(p *profile) network   { return p.ko3 }
func exactInput(p *profile) network { return p.exact }

// Every workload keeps exactly two threads busy whatever the machine
// offers, so the deterministic counters compare across machines.
var workloads = []workload{
	{
		Name:   "yeast-serial",
		Why:    "Algorithm 1 on a non-pointed network: core candidate generation and the linalg rank test do the work, no tree prefilter, no cluster/dnc/lp/jobs",
		input:  ddInput,
		run:    func(c *child) error { return c.runBatch(c.p.dd, serialConfig()) },
		traced: tracedSerial,
	},
	{
		Name:   "yeast-combined",
		Why:    "Algorithm 3 over Algorithm 2 on 2 TCP nodes: dnc classes are pointed, so the bptree prefilter runs ahead of the rank test and cluster collectives sit on the critical path",
		input:  ddInput,
		run:    func(c *child) error { return c.runBatch(c.p.dd, combinedConfig(c.p)) },
		traced: tracedCombined,
	},
	{
		Name:   "revsearch-yeast-sub",
		Why:    "reverse search to exhaustion: all time is exact-rational pivoting in revsearch and ratmat, the float64 engine does nothing",
		input:  exactInput,
		run:    func(c *child) error { return c.runBatch(c.p.exact, revsearchConfig()) },
		traced: tracedRevsearch,
	},
	{
		Name:   "ondemand-yeast-sub",
		Why:    "ranked streaming of the k best modes: lp.Dict pivots and ondemand frontier work, single-threaded; kept apart from revsearch so neither simplex can pay for the other",
		input:  exactInput,
		run:    runOndemand,
		traced: tracedOndemand,
	},
	{
		Name:   "efmd-knockout-scan",
		Why:    "2 closed-loop HTTP clients scan 12 knock-outs with 4 resubmissions each: cold jobs load the engine, hits load server, jobs, caches, parse, reduce and the codec",
		input:  ko3Input,
		run:    func(c *child) error { _, err := runScan(c); return err },
		traced: tracedScan,
	},
	{
		Name:   "efmd-fleet",
		Why:    "efmd as coordinator of 2 workers, one dnc job over HTTP: distrib dispatch and wire, the dnc scheduler, server and jobs around one job of 16 classes; cluster does nothing",
		input:  ddInput,
		run:    func(c *child) error { _, err := runFleet(c); return err },
		traced: tracedFleet,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func serialConfig() elmocomp.Config {
	return elmocomp.Config{Algorithm: elmocomp.Serial, Workers: 2}
}

func combinedConfig(p *profile) elmocomp.Config {
	return elmocomp.Config{
		Algorithm: elmocomp.DivideAndConquer, Qsub: p.qsubCombined,
		GroupConcurrency: 0, Nodes: 2, Workers: 1, OverTCP: true,
	}
}

func revsearchConfig() elmocomp.Config {
	return elmocomp.Config{Backend: elmocomp.ReverseSearchBackend, Workers: 2}
}

func ondemandConfig(p *profile) elmocomp.Config {
	return elmocomp.Config{Backend: elmocomp.OnDemandBackend, MaxModes: p.k, Objective: p.objective}
}

// childResult is what one child process — one repetition of one
// workload — reports to the parent as a single JSON line.
type childResult struct {
	SetupS      float64 // median of the set-up rounds
	WallS       float64
	CPUS        float64
	Modes       int64  // EFMs delivered inside the timed region
	Fingerprint string // of the workload's defining result
	Attempted   int
	Failed      int
	Failures    []string             `json:",omitempty"` // first few, for the log
	Samples     map[string][]float64 `json:",omitempty"` // client-side latency samples by kind
	Layer       map[string]float64   `json:",omitempty"` // traced pass only
	TracedWallS float64              `json:",omitempty"`
}

// child is the state of one repetition.
type child struct {
	p     *profile
	seed  int64
	exp   *expectations
	tr    *tracer // nil in the untraced pass
	start time.Time
	res   childResult
}

func (c *child) failf(format string, args ...any) {
	c.res.Failed++
	if len(c.res.Failures) < 5 {
		c.res.Failures = append(c.res.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one operation and compares its result with the pin in
// expected.json.
func (c *child) check(key string, modes int, fingerprint string) {
	c.res.Attempted++
	want, ok := c.exp.Results[key]
	switch {
	case !ok:
		c.failf("%s: no expected result pinned (got %d modes %s)", key, modes, fingerprint)
	case want.Modes != modes || want.Fingerprint != fingerprint:
		c.failf("%s: got %d modes %s, want %d modes %s", key, modes, fingerprint, want.Modes, want.Fingerprint)
	}
}

func (c *child) sample(kind string, v float64) {
	if c.res.Samples == nil {
		c.res.Samples = make(map[string][]float64)
	}
	c.res.Samples[kind] = append(c.res.Samples[kind], v)
}

// Set-up rounds per child. A set-up is 0.2 ms (parse), 0.3 ms (efmd and
// two connections) or 2 ms (fleet and a toy job), so many rounds cost
// nothing, and the median of many is what keeps a sub-millisecond
// metric from moving with one page fault.
const (
	batchSetupRounds = 101
	scanSetupRounds  = 51
	fleetSetupRounds = 25
	smokeSetupRounds = 3
)

// setup times everything that precedes the timed region. It runs the
// set-up several times, tearing down in between, and reports the
// median; the last round's state is the one the workload then uses.
func (c *child) setup(n int, once func() (teardown func(), err error)) (teardown func(), err error) {
	if c.p.smoke {
		n = smokeSetupRounds
	}
	rounds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if teardown != nil {
			teardown()
		}
		t0 := time.Now()
		teardown, err = once()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	c.res.SetupS = median(rounds)
	if teardown == nil {
		teardown = func() {}
	}
	return teardown, nil
}

// timed runs the measured region.
func (c *child) timed(f func() error) error {
	cpu0 := cpuSeconds()
	c.start = time.Now()
	err := f()
	c.res.WallS = time.Since(c.start).Seconds()
	c.res.CPUS = cpuSeconds() - cpu0
	return err
}

func fingerprintHex(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// runBatch is the shape of the four library workloads: parse the
// generated text, then one ComputeEFMs call.
func (c *child) runBatch(net network, cfg elmocomp.Config) error {
	var n *elmocomp.Network
	if _, err := c.setup(batchSetupRounds, func() (func(), error) {
		var err error
		n, err = elmocomp.ParseNetworkString(net.Text)
		return nil, err
	}); err != nil {
		return err
	}
	var r *elmocomp.Result
	err := c.timed(func() error {
		var err error
		r, err = elmocomp.ComputeEFMs(n, cfg)
		return err
	})
	if err != nil {
		c.res.Attempted++
		c.failf("%s: %v", net.Key, err)
		return nil
	}
	key := net.Key
	if cfg.Backend == elmocomp.OnDemandBackend {
		key = request{Net: net, Backend: "ondemand", K: cfg.MaxModes, Objective: cfg.Objective}.ExpectKey()
	}
	c.res.Modes = int64(r.Len())
	c.res.Fingerprint = fingerprintHex(r.Fingerprint())
	c.check(key, r.Len(), c.res.Fingerprint)
	return nil
}

func runOndemand(c *child) error {
	cfg := ondemandConfig(c.p)
	first := 0.0
	cfg.OnMode = func(elmocomp.ModeEvent) {
		if first == 0 {
			first = time.Since(c.start).Seconds()
		}
	}
	if err := c.runBatch(c.p.exact, cfg); err != nil {
		return err
	}
	c.sample("first_mode", first)
	return nil
}

// scanRun is what the traced pass needs beyond the child result.
type scanRun struct {
	outcomes []jobOutcome
	varz     jobs.Counters
}

// countersOf reads the manager's counters over HTTP.
func countersOf(c *client) (jobs.Counters, error) {
	st, err := c.varz()
	return st.Counters, err
}

// countersSince is the part of after − before that the layer metrics
// read.
func countersSince(after, before jobs.Counters) jobs.Counters {
	return jobs.Counters{
		Submitted: after.Submitted - before.Submitted, RunsStarted: after.RunsStarted - before.RunsStarted,
		CacheHits: after.CacheHits - before.CacheHits, PrefixHits: after.PrefixHits - before.PrefixHits,
		Coalesced: after.Coalesced - before.Coalesced, SchedSteals: after.SchedSteals - before.SchedSteals,
		RemoteClasses: after.RemoteClasses - before.RemoteClasses, RemoteRequeues: after.RemoteRequeues - before.RemoteRequeues,
	}
}

// runScan is workload 5: an in-process efmd, two closed-loop clients,
// the seeded script. The service sees only network text and options.
func runScan(c *child) (*scanRun, error) {
	script := newScript(c.p, c.seed)
	var svc *efmd
	var clients []*client
	teardown, err := c.setup(scanSetupRounds, func() (func(), error) {
		var err error
		if svc, err = startEfmd(0); err != nil {
			return nil, err
		}
		clients = []*client{newClient(svc.http.URL), newClient(svc.http.URL)}
		for _, cl := range clients {
			if err := cl.warm(); err != nil {
				return nil, err
			}
		}
		return func() {
			for _, cl := range clients {
				cl.close()
			}
			svc.stop()
		}, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()

	run := &scanRun{}
	root := c.tr.begin("efmd-knockout-scan", 0)
	_ = c.timed(func() error {
		run.outcomes = runScript(c.tr, root, clients, script)
		return nil
	})
	c.tr.end(root)
	if run.varz, err = countersOf(clients[0]); err != nil {
		return nil, err
	}
	for i, o := range run.outcomes {
		if o.Err != "" {
			c.res.Attempted++
			c.failf("%s: %s", script[i].ExpectKey(), o.Err)
			continue
		}
		c.check(script[i].ExpectKey(), o.Summary.Modes, o.Summary.Fingerprint)
		c.res.Modes += int64(o.Summary.Modes)
		c.sample(o.Kind, o.LatencyS)
		if o.Kind == "stream" {
			c.sample("first_mode", o.FirstModeS)
		}
	}
	c.res.Fingerprint = c.exp.Results[c.p.ko3.Key].Fingerprint // the scan has no single result; name its base
	return run, nil
}

// fleetRun is what the traced pass needs beyond the child result.
type fleetRun struct {
	outcome jobOutcome
	varz    jobs.Counters
	payload int64 // distrib payload bytes of the timed job
	wire    int64
}

func fleetRequest(p *profile) server.SubmitRequest {
	return server.SubmitRequest{Network: p.dd.Text, Options: server.RunOptions{
		Algorithm: "dnc", Qsub: p.qsubFleet, Nodes: 1, Workers: 1, Groups: 0,
	}}
}

// runFleet is workload 6: efmd coordinating two in-process workers over
// protocol 2, one client, one divide-and-conquer job. Set-up ends with a
// toy dnc job so that the coordinator's lazily dialled worker links
// exist before the clock starts; counters are taken as deltas past it.
func runFleet(c *child) (*fleetRun, error) {
	var svc *efmd
	var cl *client
	teardown, err := c.setup(fleetSetupRounds, func() (func(), error) {
		var err error
		if svc, err = startEfmd(2); err != nil {
			return nil, err
		}
		cl = newClient(svc.http.URL)
		warm := cl.runJob(nil, 0, "warm", server.SubmitRequest{Network: c.p.warm.Text, Options: server.RunOptions{
			Algorithm: "dnc", Qsub: 1, Nodes: 1, Workers: 1,
		}})
		if warm.Err != "" {
			return nil, fmt.Errorf("warm-up job: %s", warm.Err)
		}
		return func() { cl.close(); svc.stop() }, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()

	before, err := countersOf(cl)
	if err != nil {
		return nil, err
	}
	var payload0, wire0 int64
	for _, w := range svc.pool.Stats() {
		payload0 += w.PayloadBytes
		wire0 += w.WireBytes
	}
	run := &fleetRun{}
	root := c.tr.begin("efmd-fleet", 0)
	_ = c.timed(func() error {
		run.outcome = cl.runJob(c.tr, root, "cold", fleetRequest(c.p))
		return nil
	})
	c.tr.end(root)
	after, err := countersOf(cl)
	if err != nil {
		return nil, err
	}
	run.varz = countersSince(after, before)
	for _, w := range svc.pool.Stats() {
		run.payload += w.PayloadBytes
		run.wire += w.WireBytes
	}
	run.payload -= payload0
	run.wire -= wire0

	o := run.outcome
	if o.Err != "" {
		c.res.Attempted++
		c.failf("%s: %s", c.p.dd.Key, o.Err)
		return run, nil
	}
	c.check(c.p.dd.Key, o.Summary.Modes, o.Summary.Fingerprint)
	c.res.Modes = int64(o.Summary.Modes)
	c.res.Fingerprint = o.Summary.Fingerprint
	c.sample("cold", o.LatencyS)
	return run, nil
}

// median is the middle sample, or the mean of the middle two. 0 on no
// samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile is the nearest-rank quantile: the smallest sample with at
// least the fraction q of the samples at or below it. 0 on no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
