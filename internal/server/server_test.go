package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"elmocomp"
	"elmocomp/internal/cluster"
	"elmocomp/internal/jobs"
	"elmocomp/internal/parallel"
)

func newTestServer(t *testing.T, cfg jobs.Config) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	mgr := jobs.New(cfg)
	ts := httptest.NewServer(New(mgr))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	return ts, mgr
}

func postJob(t *testing.T, ts *httptest.Server, req SubmitRequest) (JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp.StatusCode
}

// awaitResult follows the event stream to the terminal state, then
// fetches the result.
func awaitResult(t *testing.T, ts *httptest.Server, id string) (ResultResponse, int) {
	t.Helper()
	streamEvents(t, ts, id)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result?supports=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr ResultResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return rr, resp.StatusCode
}

// streamEvents consumes the NDJSON event stream until the server closes
// it at the terminal state, returning every event in order.
func streamEvents(t *testing.T, ts *httptest.Server, id string) []jobs.Event {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type %q", ct)
	}
	var evs []jobs.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

func varz(t *testing.T, ts *httptest.Server) jobs.Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobs.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestEndToEndConcurrentJobs is the acceptance scenario: N concurrent
// HTTP submissions over mixed requests, every result fingerprint equal
// to a direct library call with the same options.
func TestEndToEndConcurrentJobs(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 2, Queue: 16})

	cases := []struct {
		name string
		req  SubmitRequest
	}{
		{"serial", SubmitRequest{Model: "toy"}},
		{"dnc", SubmitRequest{Model: "toy", Options: RunOptions{Algorithm: "dnc", Nodes: 2}}},
		{"parallel", SubmitRequest{Model: "toy", Options: RunOptions{Algorithm: "parallel", Nodes: 2}}},
	}

	// Direct library runs for the reference fingerprints.
	want := make(map[string]string)
	for _, c := range cases {
		net, err := elmocomp.Builtin(c.req.Model)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := c.req.Options.Config()
		if err != nil {
			t.Fatal(err)
		}
		res, err := elmocomp.ComputeEFMs(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[c.name] = fmt.Sprintf("%016x", res.Fingerprint())
	}

	var wg sync.WaitGroup
	for _, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, code := postJob(t, ts, c.req)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("%s: submit status %d", c.name, code)
				return
			}
			rr, code := awaitResult(t, ts, st.ID)
			if code != http.StatusOK {
				t.Errorf("%s: result status %d", c.name, code)
				return
			}
			if rr.Summary.Fingerprint != want[c.name] {
				t.Errorf("%s: fingerprint %s over HTTP, %s direct", c.name, rr.Summary.Fingerprint, want[c.name])
			}
			if rr.Summary.Modes == 0 || len(rr.Supports) != rr.Summary.Modes {
				t.Errorf("%s: %d supports for %d modes", c.name, len(rr.Supports), rr.Summary.Modes)
			}
			if rr.Job.State != "done" {
				t.Errorf("%s: job state %s", c.name, rr.Job.State)
			}
		}()
	}
	wg.Wait()
}

// TestCacheHitOverHTTP: resubmitting an identical request must be
// served from the cache — 200 on submit, cached flag set, and the
// runs_started counter unchanged.
func TestCacheHitOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 1})
	req := SubmitRequest{Model: "toy"}

	st1, code := postJob(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("first submit status %d", code)
	}
	rr1, code := awaitResult(t, ts, st1.ID)
	if code != http.StatusOK {
		t.Fatalf("first result status %d", code)
	}
	runsBefore := varz(t, ts).Counters.RunsStarted
	if runsBefore != 1 {
		t.Fatalf("runs_started = %d after one job", runsBefore)
	}

	st2, code := postJob(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("cache-hit submit status %d, want 200", code)
	}
	if !st2.Cached || st2.State != "done" {
		t.Fatalf("cache-hit status %+v", st2)
	}
	if st2.Fingerprint != rr1.Summary.Fingerprint {
		t.Errorf("cached fingerprint %s, original %s", st2.Fingerprint, rr1.Summary.Fingerprint)
	}
	after := varz(t, ts)
	if after.Counters.RunsStarted != runsBefore {
		t.Errorf("cache hit moved runs_started: %d → %d", runsBefore, after.Counters.RunsStarted)
	}
	if after.Counters.CacheHits != 1 {
		t.Errorf("cache_hits = %d", after.Counters.CacheHits)
	}
}

// blockingCompute returns a ComputeFunc that blocks until canceled or
// released, standing in for a long enumeration.
func blockingCompute(t *testing.T) (jobs.ComputeFunc, chan struct{}) {
	t.Helper()
	net, err := elmocomp.Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := elmocomp.ComputeEFMs(net, elmocomp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	return func(req jobs.Request, cancel <-chan struct{}) (*elmocomp.Result, error) {
		select {
		case <-release:
			return res, nil
		case <-cancel:
			return nil, fmt.Errorf("driver unwound: %w", cluster.ErrCanceled)
		}
	}, release
}

// TestCancelOverHTTP: DELETE mid-run cancels the job, frees the worker
// slot, and the result endpoint reports the latch cause.
func TestCancelOverHTTP(t *testing.T) {
	compute, release := blockingCompute(t)
	ts, mgr := newTestServer(t, jobs.Config{Workers: 1, Compute: compute, CacheBytes: -1})

	st, code := postJob(t, ts, SubmitRequest{Model: "toy"})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for mgr.Stats().Running != 1 {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}

	evs := streamEvents(t, ts, st.ID)
	last := evs[len(evs)-1]
	if last.State != "canceled" || !strings.Contains(last.Msg, "canceled by client request") {
		t.Errorf("terminal event %+v lacks the cancel cause", last)
	}
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusGone {
		t.Errorf("result status for canceled job = %d, want 410", rresp.StatusCode)
	}

	// Slot freed: the next job runs to completion.
	st2, code := postJob(t, ts, SubmitRequest{Model: "toy"})
	if code != http.StatusAccepted {
		t.Fatalf("second submit status %d", code)
	}
	close(release)
	evs2 := streamEvents(t, ts, st2.ID)
	if evs2[len(evs2)-1].State != "done" {
		t.Errorf("second job terminal event %+v", evs2[len(evs2)-1])
	}
}

// TestEventsStreamShape: the stream opens with the queued state, ends
// with a terminal state, and carries the driver's progress lines.
func TestEventsStreamShape(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 1})
	st, code := postJob(t, ts, SubmitRequest{Model: "toy"})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	evs := streamEvents(t, ts, st.ID)
	if len(evs) < 2 {
		t.Fatalf("only %d events", len(evs))
	}
	if evs[0].Type != "state" || evs[0].State != "queued" || evs[0].Seq != 0 {
		t.Errorf("first event %+v", evs[0])
	}
	if last := evs[len(evs)-1]; last.State != "done" {
		t.Errorf("terminal event %+v", last)
	}
	progress := 0
	for i, ev := range evs {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Type == "progress" {
			progress++
		}
	}
	if progress == 0 {
		t.Error("no driver progress lines in the stream")
	}
	// The cursor works: re-reading from the last seq returns the tail.
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", ts.URL, st.ID, len(evs)-1))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if n := bytes.Count(data, []byte("\n")); n != 1 {
		t.Errorf("cursor read returned %d lines, want 1", n)
	}
}

// TestOnDemandStreamOverHTTP is the interactive-tier acceptance over the
// wire: a backend=ondemand k=2 submission streams exactly two "mode"
// NDJSON events — rank-ordered, named supports, exact rational values —
// strictly before the terminal state event, and the result summary
// carries the ondemand block.
func TestOnDemandStreamOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 1})
	st, code := postJob(t, ts, SubmitRequest{Model: "toy", Options: RunOptions{Backend: "ondemand", K: 2}})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	evs := streamEvents(t, ts, st.ID)
	if last := evs[len(evs)-1]; last.Type != "state" || last.State != "done" {
		t.Fatalf("terminal event %+v", last)
	}
	var modes []jobs.Event
	for _, ev := range evs[:len(evs)-1] {
		if ev.Type == "mode" {
			modes = append(modes, ev)
		}
	}
	if len(modes) != 2 {
		t.Fatalf("%d mode events on the wire, want 2", len(modes))
	}
	for i, ev := range modes {
		if ev.Rank != i+1 || len(ev.Support) == 0 || ev.Value == "" {
			t.Fatalf("mode event %d malformed: %+v", i, ev)
		}
	}
	rr, code := awaitResult(t, ts, st.ID)
	if code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	od := rr.Summary.Ondemand
	if rr.Summary.Modes != 2 || od == nil || od.Emitted != 2 || od.Exhausted ||
		od.FirstModeSeconds <= 0 || od.Bases <= 0 || od.Pivots <= 0 {
		t.Fatalf("ondemand summary implausible: %+v ondemand=%+v", rr.Summary, od)
	}
	if len(rr.Supports) != 2 {
		t.Fatalf("%d supports for k=2", len(rr.Supports))
	}
	// Streaming fields are refused outside the ondemand backend.
	if _, code := postJob(t, ts, SubmitRequest{Model: "toy", Options: RunOptions{K: 2}}); code != http.StatusBadRequest {
		t.Errorf("k on the nullspace backend: status %d, want 400", code)
	}
	if _, code := postJob(t, ts, SubmitRequest{Model: "toy", Options: RunOptions{Backend: "revsearch", Objective: map[string]string{"R1": "1"}}}); code != http.StatusBadRequest {
		t.Errorf("objective on revsearch: status %d, want 400", code)
	}
}

// TestVarzStoreCounters: a memory-budgeted job must surface its store
// engagement in both the result summary and the /varz counters, without
// changing the result, and the cache gauge must reflect the stored
// payload.
func TestVarzStoreCounters(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 1, SpillDir: t.TempDir()})

	net, err := elmocomp.Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	want, err := elmocomp.ComputeEFMs(net, elmocomp.Config{})
	if err != nil {
		t.Fatal(err)
	}

	st, code := postJob(t, ts, SubmitRequest{Model: "toy", Options: RunOptions{MemBudgetBytes: 1}})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	rr, code := awaitResult(t, ts, st.ID)
	if code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	if got := fmt.Sprintf("%016x", want.Fingerprint()); rr.Summary.Fingerprint != got {
		t.Errorf("budgeted fingerprint %s, unbudgeted %s", rr.Summary.Fingerprint, got)
	}
	if st := rr.Summary.Store; st == nil || st.Spills == 0 || st.SpillBytes == 0 {
		t.Errorf("1-byte budget never spilled in the summary: %+v store=%+v", rr.Summary, st)
	}

	vz := varz(t, ts)
	if vz.Counters.StoreSpills == 0 || vz.Counters.StoreSpillBytes == 0 {
		t.Errorf("store counters missing from /varz: %+v", vz.Counters)
	}
	if vz.Cache.Bytes == 0 {
		t.Errorf("cache bytes gauge empty after a cached result: %+v", vz.Cache)
	}
	if vz.ResidentBytes != 0 {
		t.Errorf("resident_bytes = %d after the only job finished", vz.ResidentBytes)
	}
}

// TestResidentAdmissionOverHTTP: when admitting a job would push the
// in-flight memory-budget reservations past MaxResidentBytes, the submit
// is rejected with 429, and /varz tracks the reservation gauge.
func TestResidentAdmissionOverHTTP(t *testing.T) {
	compute, release := blockingCompute(t)
	ts, _ := newTestServer(t, jobs.Config{
		Workers: 1, Queue: 4, Compute: compute, CacheBytes: -1,
		MaxResidentBytes: 100, SpillDir: t.TempDir(),
	})

	st, code := postJob(t, ts, SubmitRequest{Model: "toy", Options: RunOptions{MemBudgetBytes: 60}})
	if code != http.StatusAccepted {
		t.Fatalf("first submit status %d", code)
	}
	if vz := varz(t, ts); vz.ResidentBytes != 60 {
		t.Errorf("resident_bytes = %d with one 60-byte reservation", vz.ResidentBytes)
	}
	// A different request (max_modes avoids coalescing) would need 60
	// more reserved bytes: over the 100-byte allowance.
	over := SubmitRequest{Model: "toy", Options: RunOptions{MemBudgetBytes: 60, MaxModes: 1_000_000}}
	if _, code := postJob(t, ts, over); code != http.StatusTooManyRequests {
		t.Errorf("over-allowance submit status %d, want 429", code)
	}

	close(release)
	streamEvents(t, ts, st.ID)
	if vz := varz(t, ts); vz.ResidentBytes != 0 {
		t.Errorf("resident_bytes = %d after release", vz.ResidentBytes)
	}
}

func TestSubmitValidationAndBackpressure(t *testing.T) {
	compute, release := blockingCompute(t)
	ts, mgr := newTestServer(t, jobs.Config{Workers: 1, Queue: 1, Compute: compute, CacheBytes: -1})
	defer close(release)

	bad := []SubmitRequest{
		{},                                  // no model, no network
		{Model: "toy", Network: "name x\n"}, // both
		{Model: "no-such-model"},            // unknown builtin
		{Network: "not a network"},          // parse failure
		{Model: "toy", Options: RunOptions{Algorithm: "quantum"}},
		{Model: "toy", Options: RunOptions{Algorithm: "parallel", Nodes: 200000}},
		{Model: "toy", Options: RunOptions{Algorithm: "dnc", Workers: -1}},
	}
	for i, req := range bad {
		if _, code := postJob(t, ts, req); code != http.StatusBadRequest {
			t.Errorf("bad request %d: status %d, want 400", i, code)
		}
	}
	// Options the API no longer has are unknown fields, not ignored ones:
	// a client asking for the tree test must not silently get the rank
	// test, nor one sending a tolerance the one the engine has. The 400
	// names the field.
	for field, body := range map[string]string{
		"test":      `{"model":"toy","options":{"test":"tree"}}`,
		"no_hybrid": `{"model":"toy","options":{"no_hybrid":true}}`,
		"split":     `{"model":"toy","options":{"split":true}}`,
		"tolerance": `{"model":"toy","options":{"tolerance":1e-7}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var msg struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.Error, fmt.Sprintf("unknown field %q", field)) {
			t.Errorf("%s: status %d, error %q; want a 400 naming the field", body, resp.StatusCode, msg.Error)
		}
	}

	// Inline networks work end to end.
	inline := SubmitRequest{Network: "name inline\nR1 : A => B\nR2 : B => A\n"}
	st, code := postJob(t, ts, inline)
	if code != http.StatusAccepted {
		t.Fatalf("inline submit status %d", code)
	}
	if st.ID == "" || st.State != "queued" && st.State != "running" {
		t.Errorf("inline job status %+v", st)
	}
	deadline := time.Now().Add(10 * time.Second)
	for mgr.Stats().Running != 1 {
		if time.Now().After(deadline) {
			t.Fatal("inline job never reached a worker")
		}
		time.Sleep(time.Millisecond)
	}

	// Fill the queue (worker holds the inline job), then overflow.
	if _, code := postJob(t, ts, SubmitRequest{Model: "toy"}); code != http.StatusAccepted {
		t.Fatalf("queue-filling submit status %d", code)
	}
	if _, code := postJob(t, ts, SubmitRequest{Model: "toy", Options: RunOptions{MaxModes: 1_000_000}}); code != http.StatusTooManyRequests {
		t.Errorf("overflow submit status %d, want 429", code)
	}

	// Unknown job IDs 404 on every job route.
	for _, u := range []string{"/v1/jobs/zzz", "/v1/jobs/zzz/events", "/v1/jobs/zzz/result"} {
		resp, err := http.Get(ts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", u, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

// TestDependentPartitionRefusedAtSubmit: an explicit partition whose
// reactions are linearly dependent after reduction (u2 and u3 merge
// into one column) is a 400 naming them, not a queued job that fails;
// an independent one on the same network is admitted.
func TestDependentPartitionRefusedAtSubmit(t *testing.T) {
	ts, mgr := newTestServer(t, jobs.Config{Workers: 1, Queue: 4})
	const net = "name partitions\n" +
		"u1 : Aext => A\nu2 : A => B\nu3 : B => Bext\n" +
		"c1 : A <=> C\nc2 : C <=> D\nc3 : D <=> A\n" +
		"e1 : C => Cext\ne2 : D => Dext\n"
	for part, want := range map[string]string{
		"u2,u3": "partition reactions u2, u3 are linearly dependent",
		"nope":  `partition reaction "nope" was eliminated by reduction`,
	} {
		body, err := json.Marshal(SubmitRequest{Network: net, Options: RunOptions{Algorithm: "dnc", Partition: strings.Split(part, ",")}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var msg struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.Error, want) {
			t.Errorf("partition %s: status %d, error %q; want a 400 containing %q", part, resp.StatusCode, msg.Error, want)
		}
	}
	if n := mgr.Stats().Counters.Submitted; n != 0 {
		t.Errorf("%d refused requests reached the job manager, want 0", n)
	}
	st, code := postJob(t, ts, SubmitRequest{Network: net, Options: RunOptions{Algorithm: "dnc", Partition: []string{"u1", "c1"}}})
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("independent partition: status %d, want 202 or 200", code)
	}
	if res, code := awaitResult(t, ts, st.ID); code != http.StatusOK || res.Summary.Modes != 6 {
		t.Errorf("independent partition: status %d, %d modes; want 200 and serial's 6", code, res.Summary.Modes)
	}
}

// TestRunOptionsLimits: every request size that becomes an allocation
// count — node mesh links, worker workspaces, node groups, 2^partition
// root classes — and every value the distrib class frame cannot carry (a
// negative count, a count past int32, a deadline outside [0, 24 h]) is
// refused by Config() before a job exists. The accepted limits are the
// ones distrib's TestClassSpecLimits round-trips through the class codec.
func TestRunOptionsLimits(t *testing.T) {
	names := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprint("R", i)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		opts RunOptions
		ok   bool
	}{
		{"paper-scale", RunOptions{Algorithm: "dnc", Nodes: 256, Workers: 64, Groups: 2, Qsub: 4}, true},
		{"at-the-limits", RunOptions{Nodes: parallel.MaxNodes, Workers: parallel.MaxWorkers, Groups: 1, Qsub: maxPartition, Partition: names(maxPartition),
			MaxModes: math.MaxInt32, MemBudgetBytes: math.MaxInt64, CommTimeoutSeconds: parallel.MaxCommTimeout.Seconds()}, true},
		{"k-at-the-limit", RunOptions{Backend: "ondemand", K: math.MaxInt32}, true},
		{"nodes", RunOptions{Algorithm: "parallel", Nodes: 200000}, false},
		{"workers", RunOptions{Workers: 50000000}, false},
		{"groups", RunOptions{Algorithm: "dnc", Groups: maxGroups + 1}, false},
		{"nodes-times-groups", RunOptions{Algorithm: "dnc", Nodes: parallel.MaxNodes, Groups: 2}, false},
		{"qsub", RunOptions{Algorithm: "dnc", Qsub: 40}, false},
		{"partition", RunOptions{Algorithm: "dnc", Partition: names(40)}, false},
		{"negative-nodes", RunOptions{Algorithm: "dnc", Nodes: -1}, false},
		{"negative-workers", RunOptions{Algorithm: "dnc", Workers: -1}, false},
		{"negative-qsub", RunOptions{Algorithm: "dnc", Qsub: -1}, false},
		{"negative-groups", RunOptions{Algorithm: "dnc", Groups: -1}, false},
		{"negative-max-modes", RunOptions{Algorithm: "dnc", MaxModes: -1}, false},
		{"max-modes-past-int32", RunOptions{Algorithm: "dnc", MaxModes: 3000000000}, false},
		{"negative-k", RunOptions{Backend: "ondemand", K: -1}, false},
		{"k-past-int32", RunOptions{Backend: "ondemand", K: 3000000000}, false},
		{"negative-mem-budget", RunOptions{MemBudgetBytes: -1}, false},
		{"negative-timeout", RunOptions{Algorithm: "dnc", CommTimeoutSeconds: -1}, false},
		{"timeout-past-a-day", RunOptions{Algorithm: "dnc", CommTimeoutSeconds: 90000}, false},
	} {
		if _, err := tc.opts.Config(); (err == nil) != tc.ok {
			t.Errorf("%s: Config() error = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestSummarizeJSONShape pins the result schema: the top-level keys of a
// marshalled summary — as efmd serves it, and with the blocks AddRows
// adds for efmcalc -json — and which of the engine stat blocks each kind
// of run carries. The blocks are the measuring packages' own structs, so
// one counter per block that the flattened schema could not show stands
// in for "every field is there".
func TestSummarizeJSONShape(t *testing.T) {
	net, err := elmocomp.Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	always := []string{"network", "metabolites", "reactions", "reduction", "modes", "candidate_modes",
		"fingerprint", "peak_node_bytes", "elapsed_seconds"}
	for _, tc := range []struct {
		name   string
		opts   RunOptions
		extra  []string // top-level keys beyond always
		rows   []string // keys AddRows adds
		within string   // "block.counter" that must be present once the rows are added
	}{
		{"serial", RunOptions{}, []string{"pairs_visited", "rank_eliminations"}, []string{"iterations", "phases"}, "phases.gen_seconds"},
		{"parallel-2", RunOptions{Algorithm: "parallel", Nodes: 2},
			[]string{"pairs_visited", "rank_eliminations", "comm_bytes", "comm_wire_bytes", "comm_messages"},
			[]string{"iterations", "phases", "node_phases"}, ""},
		{"dnc-budgeted", RunOptions{Algorithm: "dnc", MemBudgetBytes: 1},
			[]string{"peak_concurrent_bytes", "store", "scheduler"}, []string{"phases", "subproblems"}, "scheduler.enqueued"},
		{"revsearch", RunOptions{Backend: "revsearch"}, []string{"revsearch"}, nil, "revsearch.vertices"},
		{"ondemand-k2", RunOptions{Backend: "ondemand", K: 2}, []string{"ondemand"}, nil, "ondemand.verify_rejects"},
	} {
		cfg, err := tc.opts.Config()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cfg.SpillDir = t.TempDir()
		res, err := elmocomp.ComputeEFMs(net, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := Summarize(net, res, time.Second)
		want := append(append([]string(nil), always...), tc.extra...)
		checkKeys(t, tc.name+"/served", sum, want)
		sum.AddRows(res)
		got := checkKeys(t, tc.name+"/rows", sum, append(want, tc.rows...))
		if block, counter, ok := strings.Cut(tc.within, "."); ok {
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(got[block], &fields); err != nil {
				t.Fatalf("%s: block %q: %v", tc.name, block, err)
			}
			if _, ok := fields[counter]; !ok {
				t.Errorf("%s: %s missing from %s", tc.name, tc.within, got[block])
			}
		}
	}

	// Two of the paper's worked examples, read back through the JSON the
	// paper-table script reads: Fig. 2's candidates per iteration and
	// section III-A's four classes of two EFMs each.
	for _, tc := range []struct {
		name string
		opts RunOptions
		want string
	}{
		{"fig2", RunOptions{}, "[0 1 1 4]"},
		{"dnc-r6r-r8r", RunOptions{Algorithm: "dnc", Partition: []string{"r6r", "r8r"}}, "[2 2 2 2]"},
	} {
		cfg, err := tc.opts.Config()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := elmocomp.ComputeEFMs(net, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := Summarize(net, res, time.Second)
		sum.AddRows(res)
		raw, err := json.Marshal(sum)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got struct {
			Iterations []struct {
				CandidateModes int64 `json:"candidate_modes"`
			} `json:"iterations"`
			Subproblems []struct {
				EFMs int `json:"efms"`
			} `json:"subproblems"`
		}
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var counts []int64
		for _, it := range got.Iterations {
			counts = append(counts, it.CandidateModes)
		}
		for _, s := range got.Subproblems {
			counts = append(counts, int64(s.EFMs))
		}
		if s := fmt.Sprint(counts); s != tc.want {
			t.Errorf("%s: read %s through the JSON, want %s", tc.name, s, tc.want)
		}
	}
}

// checkKeys marshals sum and fails unless its top-level keys are exactly
// want; it returns the decoded object.
func checkKeys(t *testing.T, name string, sum RunSummary, want []string) map[string]json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(sum)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d top-level keys, want %d: %s", name, len(got), len(want), raw)
	}
	for _, k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: key %q missing: %s", name, k, raw)
		}
	}
	return got
}
