package jobs

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"elmocomp"
	"elmocomp/internal/cluster"
)

// fakeDriver is a controllable ComputeFunc: it blocks until release is
// closed (returning res) or the job's cancel channel closes (returning a
// canceled-shaped error, like the real drivers).
type fakeDriver struct {
	res     *elmocomp.Result
	release chan struct{}

	mu    sync.Mutex
	calls int
}

func newFakeDriver(t *testing.T) *fakeDriver {
	t.Helper()
	net, err := elmocomp.Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := elmocomp.ComputeEFMs(net, elmocomp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return &fakeDriver{res: res, release: make(chan struct{})}
}

func (f *fakeDriver) compute(req Request, cancel <-chan struct{}) (*elmocomp.Result, error) {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	select {
	case <-f.release:
		return f.res, nil
	case <-cancel:
		return nil, fmt.Errorf("driver unwound: %w", cluster.ErrCanceled)
	}
}

func (f *fakeDriver) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func toyRequest(t *testing.T, cfg elmocomp.Config) Request {
	t.Helper()
	net, err := elmocomp.Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	return Request{Network: net, Config: cfg}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func shutdown(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

func TestCoalescingSharesOneRun(t *testing.T) {
	f := newFakeDriver(t)
	m := New(Config{Workers: 1, Compute: f.compute, CacheBytes: -1})
	defer shutdown(t, m)
	req := toyRequest(t, elmocomp.Config{})

	// Two identical concurrent submissions.
	type sub struct {
		j   *Job
		err error
	}
	out := make(chan sub, 2)
	for i := 0; i < 2; i++ {
		go func() {
			j, err := m.Submit(req)
			out <- sub{j, err}
		}()
	}
	a, b := <-out, <-out
	if a.err != nil || b.err != nil {
		t.Fatalf("submit errors: %v / %v", a.err, b.err)
	}
	if a.j != b.j {
		t.Fatalf("identical submissions got distinct jobs %s and %s", a.j.ID, b.j.ID)
	}

	close(f.release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.j.Wait(ctx); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if got := f.callCount(); got != 1 {
		t.Errorf("driver ran %d times, want 1", got)
	}
	resA, errA := a.j.Result()
	resB, errB := b.j.Result()
	if errA != nil || errB != nil {
		t.Fatalf("results: %v / %v", errA, errB)
	}
	if resA.Fingerprint() != resB.Fingerprint() {
		t.Error("coalesced submissions returned different fingerprints")
	}
	st := m.Stats()
	if st.Counters.Submitted != 2 || st.Counters.Coalesced != 1 || st.Counters.RunsStarted != 1 {
		t.Errorf("counters = %+v, want submitted=2 coalesced=1 runs_started=1", st.Counters)
	}
	if a.j.Status().Coalesced != 1 {
		t.Errorf("job coalesce count = %d, want 1", a.j.Status().Coalesced)
	}
}

func TestCancelMidRunFreesSlotAndReportsCause(t *testing.T) {
	f := newFakeDriver(t)
	m := New(Config{Workers: 1, Compute: f.compute, CacheBytes: -1})
	defer shutdown(t, m)

	j, err := m.Submit(toyRequest(t, elmocomp.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to start", func() bool { return m.Stats().Running == 1 })

	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	werr := j.Wait(ctx)
	if werr == nil {
		t.Fatal("canceled job reported success")
	}
	if j.State() != StateCanceled {
		t.Fatalf("state = %v, want canceled", j.State())
	}
	// The job error carries the latch cause, not the driver's unwind noise.
	if !errors.Is(werr, cluster.ErrAborted) || !errors.Is(werr, ErrCanceledByClient) {
		t.Errorf("error %v does not carry the cancel cause", werr)
	}
	if !errors.Is(j.CancelCause(), ErrCanceledByClient) {
		t.Errorf("latch cause = %v", j.CancelCause())
	}
	// Cancel is idempotent.
	if err := m.Cancel(j.ID); err != nil {
		t.Errorf("second cancel: %v", err)
	}

	// The worker slot and request key are free: the same request runs
	// again as a fresh job.
	waitFor(t, "worker slot to free", func() bool { return m.Stats().Running == 0 })
	j2, err := m.Submit(toyRequest(t, elmocomp.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if j2 == j {
		t.Fatal("resubmission coalesced onto the canceled job")
	}
	waitFor(t, "second job to start", func() bool { return m.Stats().Running == 1 })
	close(f.release)
	if err := j2.Wait(ctx); err != nil {
		t.Fatalf("second job: %v", err)
	}
	st := m.Stats()
	if st.Counters.RunsCanceled != 1 || st.Counters.RunsDone != 1 || st.Counters.Coalesced != 0 {
		t.Errorf("counters = %+v", st.Counters)
	}
}

func TestCancelQueuedJobReleasesSlot(t *testing.T) {
	f := newFakeDriver(t)
	m := New(Config{Workers: 1, Queue: 4, Compute: f.compute, CacheBytes: -1})
	defer shutdown(t, m)

	blocker, err := m.Submit(toyRequest(t, elmocomp.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker to start", func() bool { return m.Stats().Running == 1 })

	queued, err := m.Submit(toyRequest(t, elmocomp.Config{MaxIntermediateModes: 1_000_000}))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Queued; got != 1 {
		t.Fatalf("queued = %d, want 1", got)
	}
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	// A queued cancel finalizes synchronously — no worker involved.
	if queued.State() != StateCanceled {
		t.Fatalf("state = %v, want canceled", queued.State())
	}
	evs, term := queued.Events(0)
	if !term {
		t.Fatal("canceled job not terminal")
	}
	last := evs[len(evs)-1]
	if last.State != "canceled" {
		t.Errorf("last event %+v", last)
	}
	if got := m.Stats().Queued; got != 0 {
		t.Errorf("queued gauge = %d after cancel, want 0", got)
	}
	// The key is free again.
	again, err := m.Submit(toyRequest(t, elmocomp.Config{MaxIntermediateModes: 1_000_000}))
	if err != nil {
		t.Fatal(err)
	}
	if again == queued {
		t.Fatal("resubmission coalesced onto canceled queued job")
	}
	close(f.release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := blocker.Wait(ctx); err != nil {
		t.Errorf("blocker: %v", err)
	}
	if err := again.Wait(ctx); err != nil {
		t.Errorf("resubmission: %v", err)
	}
	if st := m.Stats(); st.Counters.RunsCanceled != 1 || st.Counters.RunsStarted != 2 {
		t.Errorf("counters = %+v", st.Counters)
	}
}

func TestCacheHitSkipsDriver(t *testing.T) {
	// Real drivers: the second submission must be served from the cache
	// without a driver run, and match a direct library call bit for bit.
	m := New(Config{Workers: 1})
	defer shutdown(t, m)
	req := toyRequest(t, elmocomp.Config{})

	direct, err := elmocomp.ComputeEFMs(req.Network, req.Config)
	if err != nil {
		t.Fatal(err)
	}

	j1, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Counters.RunsStarted != 1 {
		t.Fatalf("runs_started = %d", m.Stats().Counters.RunsStarted)
	}

	j2, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st2 := j2.Status()
	if st2.State != StateDone || !st2.Cached {
		t.Fatalf("cache-hit job status = %+v", st2)
	}
	res2, err := j2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Fingerprint() != direct.Fingerprint() {
		t.Errorf("cached fingerprint %016x, direct %016x", res2.Fingerprint(), direct.Fingerprint())
	}
	stats := m.Stats()
	if stats.Counters.RunsStarted != 1 {
		t.Errorf("cache hit started a driver run: runs_started = %d", stats.Counters.RunsStarted)
	}
	if stats.Counters.CacheHits != 1 || stats.Cache.Hits != 1 {
		t.Errorf("cache hit counters: %+v / %+v", stats.Counters, stats.Cache)
	}
	// The hit decodes over the cold run's reduction: it must name every
	// mode and reconstruct every exact flux as the cold run does.
	res1, err := j1.Result()
	if err != nil {
		t.Fatal(err)
	}
	sameModes(t, res2, res1)
}

// sameModes fails unless got and want hold the same modes with the same
// support names and exact fluxes, in the same order.
func sameModes(t *testing.T, got, want *elmocomp.Result) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%d modes, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if g, w := got.SupportNames(i), want.SupportNames(i); !reflect.DeepEqual(g, w) {
			t.Fatalf("mode %d names %v, want %v", i, g, w)
		}
		gf, err := got.Flux(i)
		if err != nil {
			t.Fatal(err)
		}
		wf, err := want.Flux(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(gf) != len(wf) {
			t.Fatalf("mode %d flux over %d reactions, want %d", i, len(gf), len(wf))
		}
		for name, v := range wf {
			if g, ok := gf[name]; !ok || g.Cmp(v) != 0 {
				t.Fatalf("mode %d flux %s = %v, want %v", i, name, g, v)
			}
		}
	}
}

// TestCacheHitsShareReductionConcurrently: every hit on one key decodes
// over the same stored reduction, so concurrent readers of names and
// exact fluxes must not race on it (run under -race).
func TestCacheHitsShareReductionConcurrently(t *testing.T) {
	m := New(Config{Workers: 1})
	defer shutdown(t, m)
	req := toyRequest(t, elmocomp.Config{})
	cold, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cold.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want, err := cold.Result()
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := m.Submit(req)
			if err != nil {
				errs <- err
				return
			}
			res, err := j.Result()
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < res.Len(); i++ {
				if !reflect.DeepEqual(res.SupportNames(i), want.SupportNames(i)) {
					errs <- fmt.Errorf("mode %d names differ", i)
					return
				}
				if _, err := res.Flux(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := m.Stats(); st.Counters.CacheHits != readers || st.Counters.RunsStarted != 1 {
		t.Errorf("counters %+v, want %d hits over one run", st.Counters, readers)
	}
}

// TestCacheEntryCountsReduction: an entry pins its run's reduction, so
// its cost is more than its payload, and a cache filled with small
// entries holds no more of them than the budget pays for.
func TestCacheEntryCountsReduction(t *testing.T) {
	req := toyRequest(t, elmocomp.Config{})
	res, err := elmocomp.ComputeEFMs(req.Network, req.Config)
	if err != nil {
		t.Fatal(err)
	}
	payload := res.EncodeSupports()
	entry := stored{payload: payload, shell: res.Shell(), shellBytes: res.ShellBytes()}
	if entry.bytes() <= int64(len(payload)) {
		t.Fatalf("toy entry costs %d bytes, its payload alone %d", entry.bytes(), len(payload))
	}

	const fits = 3
	m := New(Config{Workers: 1, CacheBytes: fits * entry.bytes()})
	defer shutdown(t, m)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 8; i++ {
		// A distinct budget per request gives each its own key and entry.
		j, err := m.Submit(toyRequest(t, elmocomp.Config{MaxIntermediateModes: 1_000_000 + i}))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats().Cache
	if st.Bytes > st.Budget || st.Entries != fits || st.Evictions != 8-fits {
		t.Errorf("cache %+v: want %d entries of %d bytes within the budget", st, fits, entry.bytes())
	}
}

func TestQueueFullRejects(t *testing.T) {
	f := newFakeDriver(t)
	m := New(Config{Workers: 1, Queue: 1, Compute: f.compute, CacheBytes: -1})
	defer shutdown(t, m)

	if _, err := m.Submit(toyRequest(t, elmocomp.Config{})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job to start", func() bool { return m.Stats().Running == 1 })
	if _, err := m.Submit(toyRequest(t, elmocomp.Config{MaxIntermediateModes: 1_000_000})); err != nil {
		t.Fatal(err)
	}
	_, err := m.Submit(toyRequest(t, elmocomp.Config{MaxIntermediateModes: 1_000_001}))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	if got := m.Stats().Counters.Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	close(f.release)
}

func TestDrainCancelsStragglers(t *testing.T) {
	f := newFakeDriver(t)
	m := New(Config{Workers: 1, Compute: f.compute, CacheBytes: -1})

	running, err := m.Submit(toyRequest(t, elmocomp.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to start", func() bool { return m.Stats().Running == 1 })
	queued, err := m.Submit(toyRequest(t, elmocomp.Config{MaxIntermediateModes: 1_000_000}))
	if err != nil {
		t.Fatal(err)
	}

	// Never release the driver: the drain deadline must cancel both jobs
	// and still return once the drivers unwind on the latch.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if running.State() != StateCanceled || queued.State() != StateCanceled {
		t.Errorf("states after drain: %v / %v", running.State(), queued.State())
	}
	if _, err := m.Submit(toyRequest(t, elmocomp.Config{})); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit: %v, want ErrDraining", err)
	}
	if !m.Draining() {
		t.Error("Draining() = false after shutdown")
	}
}

func TestTerminalJobRetention(t *testing.T) {
	f := newFakeDriver(t)
	close(f.release) // immediate completion
	m := New(Config{Workers: 1, KeepJobs: 2, Compute: f.compute, CacheBytes: -1})
	defer shutdown(t, m)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := m.Submit(toyRequest(t, elmocomp.Config{MaxIntermediateModes: 1_000_000 + i}))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	if _, err := m.Job(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Errorf("oldest job still addressable: %v", err)
	}
	for _, id := range ids[1:] {
		if _, err := m.Job(id); err != nil {
			t.Errorf("job %s evicted early: %v", id, err)
		}
	}
	if got := m.Stats().Jobs; got != 2 {
		t.Errorf("jobs gauge = %d, want 2", got)
	}
}

// TestStatsSettledWhenWaitReturns pins the ordering inside runJob: the
// manager's bookkeeping precedes the job's terminal transition, so the
// instant Wait returns the run is counted, its slot is free, and a
// resubmission cannot coalesce onto the finished job.
func TestStatsSettledWhenWaitReturns(t *testing.T) {
	f := newFakeDriver(t)
	close(f.release) // immediate completion
	m := New(Config{Workers: 1, Compute: f.compute, CacheBytes: -1})
	defer shutdown(t, m)

	// Readers keep the manager lock contended, as /varz pollers and
	// other submitters do: a worker that released Wait before taking the
	// lock for its bookkeeping then queues behind them.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	defer readers.Wait()
	defer close(stop)
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					m.Stats()
				}
			}
		}()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req := toyRequest(t, elmocomp.Config{})
	for i := 1; i <= 500; i++ {
		j, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if st.Counters.RunsDone != int64(i) || st.Running != 0 {
			t.Fatalf("round %d: runs_done = %d, running = %d right after Wait", i, st.Counters.RunsDone, st.Running)
		}
		if st.Counters.Coalesced != 0 {
			t.Fatalf("round %d: a submission coalesced onto a finished job", i)
		}
	}
}
