package synth

import (
	"fmt"
	"testing"
	"time"

	"elmocomp"
	"elmocomp/internal/distrib"
)

// startTestWorker runs an in-process distrib worker for one test.
func startTestWorker(t *testing.T, opts distrib.WorkerOptions) *distrib.Worker {
	t.Helper()
	w, err := distrib.NewWorker("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve()
	t.Cleanup(func() { w.Close() })
	return w
}

// distribNet builds the grid point's network and its local serial
// baseline — the reference every distributed run must reproduce.
func distribNet(t *testing.T, gi int) (*elmocomp.Network, *elmocomp.Result, int) {
	t.Helper()
	pt := differentialGrid[gi]
	seed := *synthSeed + int64(gi)
	n, err := Network(Params{
		Layers: pt.layers, Width: pt.width, CrossLinks: pt.cross,
		ReversibleFraction: pt.revFrac, MaxCoef: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := elmocomp.ParseNetworkString(n.String())
	if err != nil {
		t.Fatal(err)
	}
	qsub := dncQsub(t, n)
	if qsub == 0 {
		t.Skip("network too small to partition")
	}
	base, err := elmocomp.ComputeEFMs(net, elmocomp.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Len() == 0 {
		t.Fatal("degenerate grid point: no EFMs at all")
	}
	return net, base, qsub
}

// TestDifferentialDistributed extends the cross-driver harness over the
// wire: the coordinator/worker deployment — healthy, and with an
// injected worker crash mid-run — must reproduce the local serial
// engine's canonical fingerprint exactly.
func TestDifferentialDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness runs full driver sweeps; skipped with -short")
	}
	for _, gi := range []int{1, 2, 4} {
		gi := gi
		t.Run(fmt.Sprintf("grid%d", gi), func(t *testing.T) {
			net, base, qsub := distribNet(t, gi)
			cfg := elmocomp.Config{Algorithm: elmocomp.DivideAndConquer, Workers: 1, Qsub: qsub}

			t.Run("healthy", func(t *testing.T) {
				w1, w2 := startTestWorker(t, distrib.WorkerOptions{}), startTestWorker(t, distrib.WorkerOptions{})
				pool := distrib.NewPool([]string{w1.Addr(), w2.Addr()},
					distrib.PoolOptions{ClassTimeout: 60 * time.Second})
				defer pool.Close()
				res, err := elmocomp.ComputeEFMsDistributed(net, cfg, nil, pool)
				if err != nil {
					t.Fatal(err)
				}
				if res.Fingerprint() != base.Fingerprint() || res.Len() != base.Len() {
					t.Fatalf("distributed: %d EFMs fp %016x, local %d fp %016x",
						res.Len(), res.Fingerprint(), base.Len(), base.Fingerprint())
				}
				if res.Scheduler == nil || res.Scheduler.RemoteClasses == 0 {
					t.Fatalf("no classes ran remotely: %+v", res.Scheduler)
				}
			})

			t.Run("worker-crash", func(t *testing.T) {
				// One worker of two vanishes on its first class, like a
				// kill -9 mid-compute: the class re-enqueues onto the
				// survivor and the result must not change.
				doomed := startTestWorker(t, distrib.WorkerOptions{CrashOnClass: 1})
				survivor := startTestWorker(t, distrib.WorkerOptions{})
				pool := distrib.NewPool([]string{doomed.Addr(), survivor.Addr()},
					distrib.PoolOptions{ClassTimeout: 60 * time.Second})
				defer pool.Close()
				res, err := elmocomp.ComputeEFMsDistributed(net, cfg, nil, pool)
				if err != nil {
					t.Fatalf("job failed instead of surviving the crash: %v", err)
				}
				if res.Fingerprint() != base.Fingerprint() || res.Len() != base.Len() {
					t.Fatalf("crash changed the result: %d EFMs fp %016x, local %d fp %016x",
						res.Len(), res.Fingerprint(), base.Len(), base.Fingerprint())
				}
				// A job has one class in flight per worker: the crashed
				// worker's, if it got one.
				if res.Scheduler.RemoteRequeues > 1 {
					t.Fatalf("RemoteRequeues = %d, want at most the crashed worker's one class",
						res.Scheduler.RemoteRequeues)
				}
			})
		})
	}
}

// TestDifferentialDistributedWedge pins the timeout path on its own: a
// wedged worker (accepts a class, never answers) must cost one per-class
// deadline, not the job — the class reruns and the fingerprint holds.
func TestDifferentialDistributedWedge(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness runs full driver sweeps; skipped with -short")
	}
	net, base, qsub := distribNet(t, 2)
	w := startTestWorker(t, distrib.WorkerOptions{WedgeOnClass: 1})
	pool := distrib.NewPool([]string{w.Addr()},
		distrib.PoolOptions{ClassTimeout: 500 * time.Millisecond})
	defer pool.Close()
	cfg := elmocomp.Config{Algorithm: elmocomp.DivideAndConquer, Workers: 1, Qsub: qsub}
	res, err := elmocomp.ComputeEFMsDistributed(net, cfg, nil, pool)
	if err != nil {
		t.Fatalf("job failed instead of timing the wedged worker out: %v", err)
	}
	if res.Fingerprint() != base.Fingerprint() || res.Len() != base.Len() {
		t.Fatal("wedge timeout changed the result")
	}
	// The job's one class on the wedged worker times out and is
	// requeued; nothing else was sent there.
	if res.Scheduler.RemoteTimeouts != 1 {
		t.Fatalf("RemoteTimeouts = %d, want exactly 1", res.Scheduler.RemoteTimeouts)
	}
	if r := res.Scheduler.RemoteRequeues; r != 1 {
		t.Fatalf("RemoteRequeues = %d, want 1", r)
	}
}
