package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"elmocomp/internal/distrib"
	"elmocomp/internal/jobs"
	"elmocomp/internal/server"
)

// efmd is an in-process copy of cmd/efmd with its default flags: the
// same jobs.Config, the same handler, a loopback TCP listener. With a
// fleet it is the coordinator of that many in-process workers.
type efmd struct {
	mgr     *jobs.Manager
	http    *httptest.Server
	workers []*distrib.Worker
	pool    *distrib.Pool
}

// fleetBasePort is where the fleet's workers listen (the next free
// ports above it when taken). The coordinator routes classes by a hash
// of the worker addresses, so with ephemeral ports every run would
// scatter the classes differently — and one class of the fleet workload
// is over half its work.
const fleetBasePort = 47101

func startEfmd(fleet int) (*efmd, error) {
	e := &efmd{}
	if fleet > 0 {
		var addrs []string
		port := fleetBasePort
		for i := 0; i < fleet; i++ {
			var w *distrib.Worker
			var err error
			for ; port < fleetBasePort+64; port++ {
				if w, err = distrib.NewWorker(fmt.Sprintf("127.0.0.1:%d", port), distrib.WorkerOptions{}); err == nil {
					break
				}
			}
			if err != nil {
				e.stop()
				return nil, err
			}
			port++
			// Serve returns when Close shuts the listener.
			go func() { _ = w.Serve() }()
			e.workers = append(e.workers, w)
			addrs = append(addrs, w.Addr())
		}
		e.pool = distrib.NewPool(addrs, distrib.PoolOptions{ClassTimeout: 2 * time.Minute, Inflight: 2})
	}
	e.mgr = jobs.New(jobs.Config{
		Queue:            64,
		Workers:          2,
		CacheBytes:       64 << 20,
		PrefixCacheBytes: 16 << 20,
		KeepJobs:         256,
		Remote:           e.pool,
	})
	e.http = httptest.NewServer(server.New(e.mgr))
	return e, nil
}

func (e *efmd) stop() {
	if e.http != nil {
		e.http.Close()
	}
	if e.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.mgr.Shutdown(ctx) // nothing is running; a timeout only means a leaked job
		cancel()
	}
	if e.pool != nil {
		e.pool.Close()
	}
	for _, w := range e.workers {
		_ = w.Close()
	}
}

// client is one closed-loop user of the service with a connection of
// its own.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// warm opens the client's connection.
func (c *client) warm() error {
	resp, err := c.http.Get(c.base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// jobOutcome is what the client saw of one job.
type jobOutcome struct {
	Kind          string
	Err           string  // non-empty: the job counts as failed
	LatencyS      float64 // submit → last result byte
	SubmitS       float64 // POST round trip
	QueueWaitS    float64 // server stamps: submission → running
	RunS          float64 // server stamps: running → terminal
	ResultS       float64 // GET result (summary) round trip
	SupportsS     float64 // GET result?supports=1 round trip, 0 if skipped
	SupportsBytes int64
	FirstModeS    float64           // submit → first "mode" line (streams only)
	Ran           bool              // a driver run started for it
	Classes       int               // "subset" progress events (dnc jobs)
	Summary       server.RunSummary // the result's summary block
}

// runJob submits one request, follows its event stream to the terminal
// state and downloads the result. Spans go under parent.
func (c *client) runJob(t *tracer, parent int, kind string, body server.SubmitRequest) jobOutcome {
	out := jobOutcome{Kind: kind}
	fail := func(format string, args ...any) jobOutcome {
		out.Err = fmt.Sprintf(format, args...)
		return out
	}
	job := t.begin("client.job", parent)
	defer t.end(job)
	payload, err := json.Marshal(body)
	if err != nil {
		return fail("encode request: %v", err)
	}

	start := time.Now()
	sp := t.begin("server.submit", job)
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.end(sp)
		return fail("submit: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.end(sp)
	out.SubmitS = time.Since(start).Seconds()
	if err != nil || resp.StatusCode/100 != 2 {
		return fail("submit: %s %v %s", resp.Status, err, bytes.TrimSpace(raw))
	}
	var st server.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return fail("submit response: %v", err)
	}

	sp = t.begin("server.events", job)
	resp, err = c.http.Get(c.base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.end(sp)
		return fail("events: %v", err)
	}
	final := ""
	var running float64
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(make([]byte, 64<<10), 4<<20)
	for lines.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(lines.Bytes(), &ev); err != nil {
			resp.Body.Close()
			t.end(sp)
			return fail("event line: %v", err)
		}
		switch {
		case ev.Type == "mode" && out.FirstModeS == 0:
			out.FirstModeS = time.Since(start).Seconds()
		case ev.Type == "progress" && strings.HasPrefix(ev.Msg, "subset "):
			out.Classes++
		case ev.Type == "state" && ev.State == "running":
			out.Ran = true
			running = ev.Elapsed
			out.QueueWaitS = ev.Elapsed
		case ev.Type == "state" && ev.State != "queued":
			final = ev.State
			if out.Ran {
				out.RunS = ev.Elapsed - running
			}
		}
	}
	err = lines.Err()
	resp.Body.Close()
	t.end(sp)
	if err != nil || resp.StatusCode != http.StatusOK {
		return fail("events: %s %v", resp.Status, err)
	}
	if final != "done" {
		return fail("job %s ended %q", st.ID, final)
	}

	sp = t.begin("server.result", job)
	t0 := time.Now()
	var res server.ResultResponse
	_, err = c.getJSON("/v1/jobs/"+st.ID+"/result", &res)
	t.end(sp)
	out.ResultS = time.Since(t0).Seconds()
	if err != nil {
		return fail("result: %v", err)
	}
	out.Summary = res.Summary
	if res.Summary.Modes <= supportsCap {
		sp = t.begin("server.supports", job)
		t0 = time.Now()
		out.SupportsBytes, err = c.getJSON("/v1/jobs/"+st.ID+"/result?supports=1", &res)
		t.end(sp)
		out.SupportsS = time.Since(t0).Seconds()
		if err != nil {
			return fail("supports: %v", err)
		}
		if len(res.Supports) != res.Summary.Modes {
			return fail("result lists %d supports for %d modes", len(res.Supports), res.Summary.Modes)
		}
	}
	out.LatencyS = time.Since(start).Seconds()
	return out
}

// supportsCap is the largest result whose supports the client
// downloads. The service names each mode's reactions by reconstructing
// its exact flux (about 2 ms a mode on the reference machine), so the
// supports of a 28k-mode result take a minute; like a scan that wants
// counts for every knock-out and pathways for the lethal-looking few,
// the client asks for supports only where the finished job reports a
// small mode set.
const supportsCap = 100

// getJSON downloads a body to its last byte, decodes it into v and
// returns its size.
func (c *client) getJSON(path string, v any) (int64, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: %s %s", path, resp.Status, bytes.TrimSpace(raw))
	}
	return int64(len(raw)), json.Unmarshal(raw, v)
}

// submitFor translates a script request into the wire request.
func submitFor(r request) server.SubmitRequest {
	req := server.SubmitRequest{Network: r.Net.Text}
	if r.Backend == "ondemand" {
		req.Options = server.RunOptions{Backend: "ondemand", K: r.K, Objective: r.Objective}
	} else {
		req.Options = server.RunOptions{Workers: 1}
	}
	return req
}

// runScript drives the script with the given number of closed-loop
// clients. Each client takes the first untaken entry that is eligible
// (its cold job, if any, has finished) and waits only when every
// remaining entry depends on a job still in flight on another client.
func runScript(t *tracer, root int, clients []*client, script []request) []jobOutcome {
	outcomes := make([]jobOutcome, len(script))
	var mu sync.Mutex
	ready := sync.NewCond(&mu)
	taken := make([]bool, len(script))
	done := make([]bool, len(script))
	next := func() int {
		mu.Lock()
		defer mu.Unlock()
		for {
			left := false
			for i, r := range script {
				if taken[i] {
					continue
				}
				left = true
				if r.After < 0 || done[r.After] {
					taken[i] = true
					return i
				}
			}
			if !left {
				return -1
			}
			ready.Wait()
		}
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			loop := t.fork("client.loop", root)
			defer t.end(loop)
			for i := next(); i >= 0; i = next() {
				outcomes[i] = c.runJob(t, loop, script[i].Kind, submitFor(script[i]))
				mu.Lock()
				done[i] = true
				mu.Unlock()
				ready.Broadcast()
			}
		}(c)
	}
	wg.Wait()
	return outcomes
}

// varz reads the manager's counters over HTTP.
func (c *client) varz() (jobs.Stats, error) {
	var st jobs.Stats
	_, err := c.getJSON("/varz", &st)
	return st, err
}
