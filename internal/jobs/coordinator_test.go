package jobs

import (
	"testing"
	"time"

	"elmocomp"
	"elmocomp/internal/distrib"
)

// TestCoordinatorDispatchesToWorkers: a manager with Config.Remote runs
// divide-and-conquer jobs on the worker fleet and serial jobs locally,
// and its /varz snapshot carries the per-worker counters.
func TestCoordinatorDispatchesToWorkers(t *testing.T) {
	w1, err := distrib.NewWorker("127.0.0.1:0", distrib.WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go w1.Serve()
	defer w1.Close()
	w2, err := distrib.NewWorker("127.0.0.1:0", distrib.WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go w2.Serve()
	defer w2.Close()

	pool := distrib.NewPool([]string{w1.Addr(), w2.Addr()},
		distrib.PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()

	m := New(Config{Workers: 1, Remote: pool, CacheBytes: -1})
	defer shutdown(t, m)

	local := toyRequest(t, elmocomp.Config{})
	ref, err := elmocomp.ComputeEFMs(local.Network, local.Config)
	if err != nil {
		t.Fatal(err)
	}

	dist := toyRequest(t, elmocomp.Config{Algorithm: elmocomp.DivideAndConquer, Qsub: 2})
	j, err := m.Submit(dist)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "distributed job", func() bool { return j.State().Terminal() })
	res, err := j.Result()
	if err != nil {
		t.Fatalf("distributed job failed: %v", err)
	}
	if res.Fingerprint() != ref.Fingerprint() {
		t.Fatalf("distributed fingerprint %016x != local %016x", res.Fingerprint(), ref.Fingerprint())
	}
	if res.Scheduler == nil || res.Scheduler.RemoteClasses == 0 {
		t.Fatalf("no classes ran remotely: %+v", res.Scheduler)
	}

	// Serial jobs bypass the fleet entirely.
	j, err = m.Submit(toyRequest(t, elmocomp.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "serial job", func() bool { return j.State().Terminal() })
	if res, err = j.Result(); err != nil {
		t.Fatalf("serial job failed: %v", err)
	}
	if res.Fingerprint() != ref.Fingerprint() {
		t.Fatal("serial fingerprint differs")
	}

	st := m.Stats()
	if st.Counters.RemoteClasses == 0 {
		t.Error("manager counters missed the remote classes")
	}
	if len(st.Workers) != 2 {
		t.Fatalf("stats carry %d workers, want 2", len(st.Workers))
	}
	var dispatched int64
	for _, ws := range st.Workers {
		dispatched += ws.Dispatched
	}
	if dispatched == 0 {
		t.Error("worker stats show no dispatches")
	}
}

// TestCoordinatorResubmitKeepsItsBudget: the request key leaves the memory
// budget out, so a budgeted job may follow an unbudgeted one under the
// same key — with the result cache off (or the first job canceled, failed
// or evicted) it runs again, and its classes must re-split under its own
// budget on the workers exactly as a direct run does, not run whole under
// the options the fleet saw first.
func TestCoordinatorResubmitKeepsItsBudget(t *testing.T) {
	var addrs []string
	for range 2 {
		w, err := distrib.NewWorker("127.0.0.1:0", distrib.WorkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve()
		defer w.Close()
		addrs = append(addrs, w.Addr())
	}
	pool := distrib.NewPool(addrs, distrib.PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()
	m := New(Config{Workers: 1, Remote: pool, CacheBytes: -1})
	defer shutdown(t, m)

	cfg := elmocomp.Config{Algorithm: elmocomp.DivideAndConquer, Qsub: 2}
	budgeted := cfg
	budgeted.MemBudgetBytes = 1
	direct := toyRequest(t, budgeted)
	want, err := elmocomp.ComputeEFMs(direct.Network, direct.Config)
	if err != nil {
		t.Fatal(err)
	}
	if want.Scheduler.MemResplits == 0 {
		t.Fatal("a 1-byte budget re-splits nothing in a direct run: the fixture proves nothing")
	}

	run := func(name string, cfg elmocomp.Config) (*Job, *elmocomp.Result) {
		t.Helper()
		j, err := m.Submit(toyRequest(t, cfg))
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, name, func() bool { return j.State().Terminal() })
		res, err := j.Result()
		if err != nil {
			t.Fatalf("%s failed: %v", name, err)
		}
		if res.Fingerprint() != want.Fingerprint() {
			t.Fatalf("%s: fingerprint %016x, direct run %016x", name, res.Fingerprint(), want.Fingerprint())
		}
		return j, res
	}
	first, res := run("unbudgeted job", cfg)
	if res.Scheduler.MemResplits != 0 {
		t.Fatalf("unbudgeted job re-split %d classes over memory", res.Scheduler.MemResplits)
	}
	second, res := run("budgeted resubmission", budgeted)
	if second.Key != first.Key {
		t.Fatalf("the budget forked the request key: %s vs %s", second.Key, first.Key)
	}
	if runs := m.Stats().Counters.RunsStarted; runs != 2 {
		t.Fatalf("%d runs started, want 2", runs)
	}
	if got, w := res.Scheduler, want.Scheduler; got.MemResplits != w.MemResplits || got.Enqueued != w.Enqueued {
		t.Fatalf("budgeted resubmission: %d memory re-splits of %d classes, a direct run under the budget has %d of %d",
			got.MemResplits, got.Enqueued, w.MemResplits, w.Enqueued)
	}
}
