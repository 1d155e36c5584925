package distrib

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"elmocomp/internal/bitset"
	"elmocomp/internal/cluster"
	"elmocomp/internal/core"
	"elmocomp/internal/dnc"
	"elmocomp/internal/model"
	"elmocomp/internal/reduce"
)

func TestFrameRoundTripAndLimit(t *testing.T) {
	var buf bytes.Buffer
	in := classRequest{Seq: 7, Key: "k", Network: "net", Partition: []int{3, 5}, Class: 2}
	if err := cluster.WriteFrame(&buf, encodeClass(&in)); err != nil {
		t.Fatal(err)
	}
	body, err := cluster.ReadFrame(&buf, cluster.MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeClass(body)
	if err != nil {
		t.Fatal(err)
	}
	if out.Seq != 7 || out.Class != 2 || len(out.Partition) != 2 {
		t.Fatalf("round trip mangled: %+v", out)
	}
	buf.Reset()
	if err := cluster.WriteFrame(&buf, encodeClass(&in)); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.ReadFrame(&buf, 8); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// startWorker runs a worker on a loopback port for the test's lifetime.
func startWorker(t *testing.T, opts WorkerOptions) *Worker {
	t.Helper()
	w, err := NewWorker("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve()
	t.Cleanup(func() { w.Close() })
	return w
}

// toyJob prepares the shared job fixture: the built-in toy network's
// canonical text, its reduction, and the sequential reference result.
func toyJob(t *testing.T) (JobSpec, *reduce.Reduced, *dnc.Result) {
	t.Helper()
	n := model.Builtin("toy")
	if n == nil {
		t.Fatal("no toy network")
	}
	return jobOf(t, n)
}

// jobOf is toyJob for any network.
func jobOf(t *testing.T, n *model.Network) (JobSpec, *reduce.Reduced, *dnc.Result) {
	t.Helper()
	red, err := reduce.Network(n, reduce.Options{MergeDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := dnc.Run(red.N, red.Reversibilities(), dnc.Options{Qsub: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Key: "test-job-1", Network: n.String(), Q: red.N.Cols()}
	return spec, red, seq
}

func fp(supports []bitset.Set) uint64 { return core.SupportsFingerprint(supports) }

func TestPoolEndToEnd(t *testing.T) {
	spec, red, seq := toyJob(t)
	w1 := startWorker(t, WorkerOptions{})
	w2 := startWorker(t, WorkerOptions{})
	pool := NewPool([]string{w1.Addr(), w2.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()

	res, err := dnc.Run(red.N, red.Reversibilities(), dnc.Options{Qsub: 2, Remote: pool.Bind(spec)})
	if err != nil {
		t.Fatal(err)
	}
	if fp(res.Supports) != fp(seq.Supports) {
		t.Fatalf("distributed fingerprint %x != local %x", fp(res.Supports), fp(seq.Supports))
	}
	if res.Sched.RemoteClasses == 0 {
		t.Fatal("no classes ran on the workers")
	}
	if res.Sched.RemoteRequeues != 0 {
		t.Fatalf("%d requeues on a healthy fleet", res.Sched.RemoteRequeues)
	}
	var dispatched int64
	for _, ws := range pool.Stats() {
		if !ws.Alive {
			t.Errorf("worker %s marked dead on a healthy run", ws.Addr)
		}
		dispatched += ws.Dispatched
		if ws.Dispatched != ws.Completed {
			t.Errorf("worker %s: %d dispatched vs %d completed", ws.Addr, ws.Dispatched, ws.Completed)
		}
	}
	if dispatched != res.Sched.RemoteClasses {
		t.Errorf("pool dispatched %d, scheduler counted %d", dispatched, res.Sched.RemoteClasses)
	}
}

// TestPoolNoClassWaitsOnBusyWorker: a job has one runner per worker, so
// a class leaves the queue only when a worker can start it. Worker A
// takes 200 ms a class and worker B 10 ms: A starts one of the toy job's
// four classes and B serves the other three meanwhile. A second runner
// per worker would hand A two classes at once, the second waiting behind
// the first while B idles.
func TestPoolNoClassWaitsOnBusyWorker(t *testing.T) {
	spec, red, seq := toyJob(t)
	slow := startWorker(t, WorkerOptions{DelayPerClass: 200 * time.Millisecond})
	fast := startWorker(t, WorkerOptions{DelayPerClass: 10 * time.Millisecond})
	pool := NewPool([]string{slow.Addr(), fast.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()

	res, err := dnc.Run(red.N, red.Reversibilities(), dnc.Options{Qsub: 2, Remote: pool.Bind(spec)})
	if err != nil {
		t.Fatal(err)
	}
	if fp(res.Supports) != fp(seq.Supports) {
		t.Fatalf("distributed fingerprint %x != local %x", fp(res.Supports), fp(seq.Supports))
	}
	if res.Sched.RemoteClasses != 4 || res.Sched.RemoteRequeues != 0 {
		t.Fatalf("%d remote classes, %d requeues; want 4 and 0", res.Sched.RemoteClasses, res.Sched.RemoteRequeues)
	}
	if a, b := slow.Counters().Served, fast.Counters().Served; a != 1 || b != 3 {
		t.Fatalf("slow worker served %d classes, fast worker %d; want 1 and 3", a, b)
	}
}

// TestPoolClassCacheHits: a worker keeps no class results, so the same
// job run twice through one worker computes every class twice — on the
// sequential fingerprint both times. The coordinator's request-key cache
// is the fleet's only result cache.
func TestPoolClassCacheHits(t *testing.T) {
	spec, red, seq := toyJob(t)
	w := startWorker(t, WorkerOptions{})
	pool := NewPool([]string{w.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()

	var served [2]int64
	for round := range served {
		res, err := dnc.Run(red.N, red.Reversibilities(), dnc.Options{Qsub: 2, Remote: pool.Bind(spec)})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if fp(res.Supports) != fp(seq.Supports) {
			t.Fatalf("round %d: fingerprint mismatch", round)
		}
		served[round] = w.Counters().Served
	}
	if served[0] == 0 || served[1] != 2*served[0] {
		t.Fatalf("worker served %d classes after one run and %d after two, want the second run to compute every class again", served[0], served[1])
	}
	if got := pool.Stats()[0].Completed; got != served[1] {
		t.Errorf("pool completed %d classes, worker served %d", got, served[1])
	}
}

// TestWorkerReducesOncePerJob: classes of two jobs alternating on one
// link (efmd's default -concurrency 2 against one worker) each find their
// job's reduction where the job's first class left it — a worker parses
// and reduces a network once per job, not once per alternation.
func TestWorkerReducesOncePerJob(t *testing.T) {
	specA, _, seq := toyJob(t)
	specB := specA
	specB.Key = "test-job-2"
	w := startWorker(t, WorkerOptions{})
	pool := NewPool([]string{w.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()

	first := map[string]*reduce.Reduced{}
	for id := uint64(0); id < 1<<uint(len(seq.Partition)); id++ {
		for _, spec := range []JobSpec{specA, specB} {
			if _, err := pool.Bind(spec).Run(0, dnc.RemoteClass{ID: id, Partition: seq.Partition}, nil); err != nil {
				t.Fatalf("job %q class %d: %v", spec.Key, id, err)
			}
			got := memoOf(t, w, spec.Key)
			if id == 0 {
				first[spec.Key] = got
			} else if got != first[spec.Key] {
				t.Fatalf("job %q class %d ran on a fresh reduction: the network was parsed and reduced again", spec.Key, id)
			}
		}
	}

	// A second coordinator's link reaches the same job's entry from
	// another connection at the same time (the lane -race watches).
	other := NewPool([]string{w.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer other.Close()
	var wg sync.WaitGroup
	for _, p := range []*Pool{pool, other} {
		wg.Add(1)
		go func(p *Pool) {
			defer wg.Done()
			for id := uint64(0); id < 1<<uint(len(seq.Partition)); id++ {
				if _, err := p.Bind(specA).Run(0, dnc.RemoteClass{ID: id, Partition: seq.Partition}, nil); err != nil {
					t.Errorf("concurrent class %d: %v", id, err)
				}
			}
		}(p)
	}
	wg.Wait()
}

// memoOf returns the reduction the worker's memo holds for a job key:
// what the key's next class would run on.
func memoOf(t *testing.T, w *Worker, key string) *reduce.Reduced {
	t.Helper()
	job, ok := w.jobs.Get(key)
	if !ok {
		t.Fatalf("worker holds nothing for job %q", key)
	}
	job.once.Do(func() {}) // orders this read after the class that filled the entry
	if job.red == nil {
		t.Fatalf("job %q: entry without a reduction (%v)", key, job.err)
	}
	return job.red
}

// TestPoolWorkerCrash: one worker of two dies on its first class (like
// kill -9 mid-class). The job must complete with an identical result;
// any class the dead worker held is re-enqueued.
func TestPoolWorkerCrash(t *testing.T) {
	spec, red, seq := toyJob(t)
	doomed := startWorker(t, WorkerOptions{CrashOnClass: 1})
	healthy := startWorker(t, WorkerOptions{})
	pool := NewPool([]string{doomed.Addr(), healthy.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()

	res, err := dnc.Run(red.N, red.Reversibilities(), dnc.Options{Qsub: 2, Remote: pool.Bind(spec)})
	if err != nil {
		t.Fatalf("run failed despite a surviving worker: %v", err)
	}
	if fp(res.Supports) != fp(seq.Supports) {
		t.Fatalf("fingerprint differs after worker crash")
	}
	// The doomed worker crashes on the first class it receives; whether
	// it receives one is a scheduling race, and a job has one class in
	// flight per worker — so the requeue count is 0 or 1, never more,
	// and never a failed job.
	if res.Sched.RemoteRequeues > 1 {
		t.Fatalf("RemoteRequeues = %d, want <= 1", res.Sched.RemoteRequeues)
	}
}

// TestPoolAllWorkersCrashFallback: every worker dies on its first class.
// Deterministic: the coordinator requeues each loss, retires the fleet,
// and finishes with the last dead slot carrying on as a local group.
func TestPoolAllWorkersCrashFallback(t *testing.T) {
	spec, red, seq := toyJob(t)
	w1 := startWorker(t, WorkerOptions{CrashOnClass: 1})
	w2 := startWorker(t, WorkerOptions{CrashOnClass: 1})
	pool := NewPool([]string{w1.Addr(), w2.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()

	res, err := dnc.Run(red.N, red.Reversibilities(), dnc.Options{Qsub: 2, Remote: pool.Bind(spec)})
	if err != nil {
		t.Fatalf("run failed instead of falling back locally: %v", err)
	}
	if fp(res.Supports) != fp(seq.Supports) {
		t.Fatal("fingerprint differs after total fleet loss")
	}
	if res.Sched.RemoteRequeues == 0 {
		t.Fatal("no requeues recorded though every worker died")
	}
	for _, ws := range pool.Stats() {
		if ws.Alive {
			t.Errorf("worker %s still marked alive after crashing", ws.Addr)
		}
	}
}

// TestPoolWedgedWorkerTimeout: a worker that accepts a class and never
// answers must trip the per-class deadline; the class reruns (here on
// the last dead slot, carrying on locally — the wedged worker was the
// whole fleet)
// and the result is unchanged. MemResplits-style: the timeout is a
// counter, not a job failure.
func TestPoolWedgedWorkerTimeout(t *testing.T) {
	spec, red, seq := toyJob(t)
	w := startWorker(t, WorkerOptions{WedgeOnClass: 1})
	pool := NewPool([]string{w.Addr()}, PoolOptions{ClassTimeout: 500 * time.Millisecond})
	defer pool.Close()

	res, err := dnc.Run(red.N, red.Reversibilities(), dnc.Options{Qsub: 2, Remote: pool.Bind(spec)})
	if err != nil {
		t.Fatalf("run failed instead of timing the wedged worker out: %v", err)
	}
	if fp(res.Supports) != fp(seq.Supports) {
		t.Fatal("fingerprint differs after wedge timeout")
	}
	// The job has one class in flight on the worker: it times out and
	// is requeued, and nothing else was sent there.
	if res.Sched.RemoteTimeouts != 1 {
		t.Fatalf("RemoteTimeouts = %d, want 1", res.Sched.RemoteTimeouts)
	}
	if r := res.Sched.RemoteRequeues; r != 1 {
		t.Fatalf("RemoteRequeues = %d, want 1", r)
	}
	if st := pool.Stats()[0]; st.Timeouts != 1 {
		t.Fatalf("pool recorded %d timeouts, want 1", st.Timeouts)
	}
}

// TestPoolRedialAcrossJobs: a worker restarted between jobs rejoins the
// fleet — the sticky down flag only retires a slot within a run. The
// late worker's slot is dispatched to directly: whether a scheduled job
// ever routes one of the toy network's four classes there before w1
// finishes them is a goroutine-scheduling race, and a link that was
// never dispatched to never dials.
func TestPoolRedialAcrossJobs(t *testing.T) {
	spec, red, seq := toyJob(t)
	w1 := startWorker(t, WorkerOptions{})
	// Reserve an address with no worker behind it yet.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lateAddr := ln.Addr().String()
	ln.Close()

	pool := NewPool([]string{w1.Addr(), lateAddr}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()
	const lateSlot = 1 // slot 1 is the late worker's
	exec := pool.Bind(spec)
	class := dnc.RemoteClass{Partition: seq.Partition}
	runJob := func(name string) {
		t.Helper()
		res, err := dnc.Run(red.N, red.Reversibilities(), dnc.Options{Qsub: 2, Remote: exec})
		if err != nil {
			t.Fatalf("%s failed: %v", name, err)
		}
		if fp(res.Supports) != fp(seq.Supports) {
			t.Fatalf("%s fingerprint differs", name)
		}
	}

	if _, err := exec.Run(lateSlot, class, nil); !errors.Is(err, dnc.ErrWorkerLost) {
		t.Fatalf("class on the absent worker: err = %v, want worker-lost", err)
	}
	if pool.Stats()[lateSlot].Alive {
		t.Fatal("absent worker marked alive after a failed dispatch")
	}
	runJob("job 1")

	// The missing worker comes up; the next dispatch redials it.
	late, err := NewWorker(lateAddr, WorkerOptions{})
	if err != nil {
		t.Skipf("reserved port was taken: %v", err)
	}
	go late.Serve()
	defer late.Close()

	if _, err := exec.Run(lateSlot, class, nil); err != nil {
		t.Fatalf("class on the restarted worker failed: %v", err)
	}
	if !pool.Stats()[lateSlot].Alive {
		t.Fatal("restarted worker still marked dead after serving a class")
	}
	runJob("job 2")
}

// TestWorkerProtocolMismatch: a hello on this build's version is
// accepted; one on any other version gets a refusal naming both versions
// and a closed connection — not a hung or misparsed one — and the
// worker's log gets the same refusal.
func TestWorkerProtocolMismatch(t *testing.T) {
	var logMu sync.Mutex
	var logged []string
	w := startWorker(t, WorkerOptions{Logf: func(format string, args ...interface{}) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}})
	for _, tc := range []struct {
		proto  int
		refuse bool
	}{
		{protoVersion, false},
		{7, true}, // protocol 7 answered a class without the worker's clock on it
		{6, true}, // protocol 6 shipped results compressed, in a frame with two more fields
		{5, true}, // protocol 5 sent classes that leaned on an earlier frame's spec block
		{4, true}, // protocol 4 marked results served from a worker's class cache
		{3, true}, // protocol 3 carried a tolerance in the slot this build reserves
		{2, true}, // protocol 2 set flag bits this build refuses
		{1, true},
		{protoVersion + 1, true},
	} {
		t.Run(fmt.Sprint("proto-", tc.proto), func(t *testing.T) {
			conn, err := net.DialTimeout("tcp", w.Addr(), 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if err := writeHello(conn, hello{Proto: tc.proto}); err != nil {
				t.Fatal(err)
			}
			resp, err := readHello(conn)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.refuse {
				if resp.Error != "" || resp.Proto != protoVersion {
					t.Fatalf("hello at protocol %d answered %+v, want acceptance at %d", tc.proto, resp, protoVersion)
				}
				return
			}
			for _, want := range []string{fmt.Sprint("protocol ", tc.proto), fmt.Sprint("protocol ", protoVersion)} {
				if !strings.Contains(resp.Error, want) {
					t.Fatalf("refusal %q does not name %q", resp.Error, want)
				}
			}
			if _, err := cluster.ReadFrame(conn, helloMaxFrame); !errors.Is(err, io.EOF) {
				t.Fatalf("connection not closed after the refusal: %v", err)
			}
			// The worker logs a refusal before it writes it.
			logMu.Lock()
			last := ""
			if len(logged) > 0 {
				last = logged[len(logged)-1]
			}
			logMu.Unlock()
			if !strings.Contains(last, "refused") || !strings.Contains(last, resp.Error) {
				t.Fatalf("worker log ends %q, want the refusal %q", last, resp.Error)
			}
		})
	}
}

// TestPoolProtoRefusal: the coordinator's half of the hello. A worker
// that refuses the connection, or answers on another protocol version,
// costs the link — reported as worker-lost with the reason, which names
// both versions, marked dead with that reason as its last_error, neither
// wedged nor redialed in a loop.
func TestPoolProtoRefusal(t *testing.T) {
	for name, answer := range map[string]hello{
		"refused": {Proto: protoVersion + 1, Error: fmt.Sprintf(
			"distrib: coordinator speaks protocol %d, this build speaks protocol %d", protoVersion, protoVersion+1)},
		"other-version": {Proto: protoVersion + 1},
		"proto-6":       {Proto: 6},
		"proto-7":       {Proto: 7},
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				for {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					if _, err := readHello(c); err == nil {
						writeHello(c, answer)
					}
					c.Close()
				}
			}()

			spec, _, _ := toyJob(t)
			pool := NewPool([]string{ln.Addr().String()}, PoolOptions{ClassTimeout: 5 * time.Second})
			defer pool.Close()
			cancel := make(chan struct{})
			defer close(cancel)
			_, err = pool.Bind(spec).Run(0, dnc.RemoteClass{ID: 0, Partition: []int{0}, Label: "0"}, cancel)
			if !errors.Is(err, dnc.ErrWorkerLost) {
				t.Fatalf("hello %+v surfaced as %v, want worker-lost", answer, err)
			}
			if !strings.Contains(err.Error(), "protocol") {
				t.Fatalf("error %q does not say why the link was refused", err)
			}
			st := pool.Stats()[0]
			if st.Alive {
				t.Fatal("refused link still marked alive")
			}
			if st.LastError != err.Error() {
				t.Fatalf("last_error %q, want the refusal %q", st.LastError, err)
			}
			for _, want := range []string{fmt.Sprint("protocol ", answer.Proto), fmt.Sprint("protocol ", protoVersion)} {
				if !strings.Contains(st.LastError, want) {
					t.Fatalf("last_error %q does not name %q", st.LastError, want)
				}
			}
		})
	}
}

// TestWorkerSilentHelloTimeout: a peer that connects and sends nothing
// is dropped once the hello bound passes, instead of pinning a goroutine
// and a socket until Close. A real class on another connection, still
// computing when the bound passes, completes: the deadline covers the
// hello only and is cleared after it.
func TestWorkerSilentHelloTimeout(t *testing.T) {
	spec, _, _ := toyJob(t)
	w, err := NewWorker("127.0.0.1:0", WorkerOptions{DelayPerClass: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	w.helloTimeout = 100 * time.Millisecond
	go w.Serve()
	t.Cleanup(func() { w.Close() })

	silent, err := net.DialTimeout("tcp", w.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	pool := NewPool([]string{w.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()
	cancel := make(chan struct{})
	defer close(cancel)
	classDone := make(chan error, 1)
	go func() {
		_, err := pool.Bind(spec).Run(0, dnc.RemoteClass{ID: 0, Partition: []int{0}, Label: "0"}, cancel)
		classDone <- err
	}()

	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := silent.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("silent connection not closed by the worker: %v", err)
	}
	select {
	case err := <-classDone:
		t.Fatalf("class finished (err %v) before the silent peer was dropped; the test proved nothing about overlap", err)
	default:
	}
	if err := <-classDone; err != nil {
		t.Fatalf("class on a healthy connection failed: %v", err)
	}
}

// TestPoolBudgetStatusIdentity: budget overflows must cross the wire
// with their exact error identity — the coordinator's re-split policy
// keys on errors.Is(err, core.ErrBudget) / core.ErrMemBudget.
func TestPoolBudgetStatusIdentity(t *testing.T) {
	spec, _, _ := toyJob(t)
	w := startWorker(t, WorkerOptions{})
	pool := NewPool([]string{w.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()
	spec.Exec.Core.MaxModes = 1 // every class overflows
	exec := pool.Bind(spec)
	cancel := make(chan struct{})
	defer close(cancel)
	_, err := exec.Run(0, dnc.RemoteClass{ID: 0, Partition: []int{0}, Label: "0"}, cancel)
	if err == nil {
		t.Fatal("MaxModes=1 class completed")
	}
	if !errors.Is(err, core.ErrBudget) {
		t.Fatalf("budget identity lost over the wire: %v", err)
	}
	if errors.Is(err, dnc.ErrWorkerLost) {
		t.Fatalf("budget overflow misclassified as worker loss: %v", err)
	}
}

// TestPoolResubmitRunsUnderItsOwnOptions: a job key does not hash the
// memory budget (nor Workers, Nodes, the collective deadline), so two
// jobs may share a key and differ in it. Each class runs under the
// options of the frame that carries it: a budgeted resubmission on a link
// that already served the key unbudgeted overflows like a first run.
func TestPoolResubmitRunsUnderItsOwnOptions(t *testing.T) {
	spec, _, _ := toyJob(t)
	w := startWorker(t, WorkerOptions{})
	pool := NewPool([]string{w.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()
	class := dnc.RemoteClass{ID: 1, Partition: []int{0}, Label: "1", StrictMem: true}

	if _, err := pool.Bind(spec).Run(0, class, nil); err != nil {
		t.Fatalf("unbudgeted class: %v", err)
	}
	spec.Exec.Core.MemBudget = 1
	if _, err := pool.Bind(spec).Run(0, class, nil); !errors.Is(err, core.ErrMemBudget) {
		t.Fatalf("the same key resubmitted with a 1-byte strict budget: err = %v, want core.ErrMemBudget", err)
	}
}

// TestPoolCancelSparesSharedWorker: two jobs share a one-worker pool, as
// the jobs of efmd -coordinator -concurrency 2 do, and job A is canceled
// mid-run. A canceled call closes its own connection and nothing else:
// job B runs all four of its classes on the worker without a requeue,
// and the worker reads alive, with no failure counted against it.
func TestPoolCancelSparesSharedWorker(t *testing.T) {
	specA, red, seq := toyJob(t)
	specB := specA
	specB.Key = "test-job-2"
	w := startWorker(t, WorkerOptions{DelayPerClass: 50 * time.Millisecond})
	pool := NewPool([]string{w.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()

	cancelA := make(chan struct{})
	errA := make(chan error, 1)
	go func() {
		opts := dnc.Options{Qsub: 2, Remote: pool.Bind(specA)}
		opts.Parallel.Cancel = cancelA
		_, err := dnc.Run(red.N, red.Reversibilities(), opts)
		errA <- err
	}()
	go func() {
		// Cancel once the worker has answered a class: both jobs have
		// classes in flight then, each job's four taking 50 ms apiece.
		for w.Counters().Served == 0 {
			time.Sleep(5 * time.Millisecond)
		}
		close(cancelA)
	}()
	resB, err := dnc.Run(red.N, red.Reversibilities(), dnc.Options{Qsub: 2, Remote: pool.Bind(specB)})
	if err != nil {
		t.Fatalf("job B: %v", err)
	}
	if err := <-errA; err == nil {
		t.Fatal("job A finished though it was canceled")
	}
	if fp(resB.Supports) != fp(seq.Supports) {
		t.Fatal("job B's fingerprint differs")
	}
	if resB.Sched.RemoteRequeues != 0 || resB.Sched.RemoteClasses != 4 {
		t.Fatalf("job B: %d requeues, %d remote classes; want 0 and 4", resB.Sched.RemoteRequeues, resB.Sched.RemoteClasses)
	}
	if st := pool.Stats()[0]; !st.Alive || st.Failures != 0 {
		t.Fatalf("job A's cancel cost the shared worker: %+v", st)
	}
}

// TestPoolRemoteClassClock: a remote class carries the worker's own
// clock over the wire, its phase times and the seconds around them, as a
// local class does. One core per class keeps the phase times wall-clock
// seconds inside the class's own.
func TestPoolRemoteClassClock(t *testing.T) {
	spec, red, _ := toyJob(t)
	spec.Exec.Core.Workers = 1
	w := startWorker(t, WorkerOptions{})
	pool := NewPool([]string{w.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()

	res, err := dnc.Run(red.N, red.Reversibilities(), dnc.Options{Qsub: 2, Remote: pool.Bind(spec)})
	if err != nil {
		t.Fatal(err)
	}
	seconds := map[string]float64{}
	for _, c := range res.Sched.Classes {
		seconds[c.Label] = c.Seconds
	}
	var checked int
	res.Walk(func(s *dnc.Subproblem) {
		if s.Skipped {
			return
		}
		label := fmt.Sprintf("%0*b", len(s.Partition), s.ID)
		sec, ok := seconds[label]
		if !ok {
			t.Fatalf("class %s ran but the scheduler lists no seconds for it", label)
		}
		if total := s.Phases.Total(); !(total > 0 && total <= sec) {
			t.Errorf("class %s: phases %+v (total %.6fs) against %.6fs, want 0 < total <= seconds", label, s.Phases, total, sec)
		}
		checked++
	})
	if checked == 0 || int64(checked) > res.Sched.RemoteClasses {
		t.Fatalf("checked %d classes, %d ran remotely", checked, res.Sched.RemoteClasses)
	}
}

// TestWorkerOneClassPerConnection: a connection carries one class and
// then its reply. A peer that sends a second class before the first is
// answered loses the connection and both classes, rather than queueing
// work on the worker; a pool's connections beside it keep serving.
func TestWorkerOneClassPerConnection(t *testing.T) {
	spec, red, seq := toyJob(t)
	w := startWorker(t, WorkerOptions{DelayPerClass: 100 * time.Millisecond})
	conn, err := net.DialTimeout("tcp", w.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeHello(conn, hello{Proto: protoVersion}); err != nil {
		t.Fatal(err)
	}
	if resp, err := readHello(conn); err != nil || resp.Error != "" {
		t.Fatalf("hello answered %+v, %v", resp, err)
	}
	for seqNo := uint64(1); seqNo <= 2; seqNo++ {
		frame := encodeClass(&classRequest{Seq: seqNo, Key: spec.Key, Network: spec.Network, Partition: seq.Partition, Class: seqNo})
		if err := cluster.WriteFrame(conn, frame); err != nil {
			t.Fatal(err)
		}
	}
	if body, err := cluster.ReadFrame(conn, cluster.MaxFrame); !errors.Is(err, io.EOF) {
		t.Fatalf("worker answered two classes on one connection with %d bytes, %v; want a closed connection", len(body), err)
	}

	pool := NewPool([]string{w.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()
	res, err := dnc.Run(red.N, red.Reversibilities(), dnc.Options{Qsub: 2, Remote: pool.Bind(spec)})
	if err != nil {
		t.Fatal(err)
	}
	if fp(res.Supports) != fp(seq.Supports) || res.Sched.RemoteRequeues != 0 {
		t.Fatalf("fingerprint %x (want %x), %d requeues after another connection's violation", fp(res.Supports), fp(seq.Supports), res.Sched.RemoteRequeues)
	}
}

// TestPoolWorkerRestartBetweenJobs: a worker restarted between two jobs
// closed the connections the pool kept idle. The next job's first calls
// find theirs closed and retry on fresh connections, so the restarted
// worker runs all four classes, without a requeue or a failure counted
// against it.
func TestPoolWorkerRestartBetweenJobs(t *testing.T) {
	spec, red, seq := toyJob(t)
	first, err := NewWorker("127.0.0.1:0", WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := first.Addr()
	go first.Serve()
	pool := NewPool([]string{addr}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()
	runJob := func(name string) *dnc.Result {
		t.Helper()
		res, err := dnc.Run(red.N, red.Reversibilities(), dnc.Options{Qsub: 2, Remote: pool.Bind(spec)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fp(res.Supports) != fp(seq.Supports) {
			t.Fatalf("%s: fingerprint differs", name)
		}
		return res
	}
	runJob("job 1")
	first.Close()

	restarted, err := NewWorker(addr, WorkerOptions{})
	if err != nil {
		t.Skipf("the worker's port was taken: %v", err)
	}
	go restarted.Serve()
	defer restarted.Close()
	res := runJob("job 2")
	if res.Sched.RemoteClasses != 4 || res.Sched.RemoteRequeues != 0 {
		t.Fatalf("job 2: %d remote classes, %d requeues; want 4 and 0", res.Sched.RemoteClasses, res.Sched.RemoteRequeues)
	}
	if st := pool.Stats()[0]; !st.Alive || st.Failures != 0 {
		t.Fatalf("the restart cost the worker: %+v", st)
	}
}
