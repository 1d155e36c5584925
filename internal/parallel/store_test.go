package parallel

import (
	"errors"
	"os"
	"testing"
	"time"

	"elmocomp/internal/cluster"
	"elmocomp/internal/core"
)

func spillDirEntries(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

func TestRunStoreTierEquivalence(t *testing.T) {
	// A group that spills every round must reproduce the unbudgeted
	// group's modes bit-identically, with each node running its own store.
	p := toyProblem(t)
	base, err := Run(p, Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("spill", func(t *testing.T) {
		dir := t.TempDir()
		res, err := Run(p, Options{
			Nodes: 3,
			Core:  core.Options{MemBudget: 1, SpillDir: dir},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Modes.Fingerprint(), base.Modes.Fingerprint(); got != want {
			t.Fatalf("spilling run diverged: fingerprint %016x, unbudgeted %016x", got, want)
		}
		if res.Store.Spills == 0 {
			t.Fatalf("one-byte budget recorded no spills: %+v", res.Store)
		}
		// Store counters sum over the replicas: with 3 nodes the group
		// must have held at least 3 rounds' worth of flat bytes.
		if res.Store.FlatBytes < 3*base.Modes.MemoryBytes() {
			t.Fatalf("store totals do not look summed over nodes: %+v", res.Store)
		}
		if n := spillDirEntries(t, dir); n != 0 {
			t.Fatalf("%d spill files left behind after a clean run", n)
		}
	})
}

func TestSpillCleanupOnNodeFailure(t *testing.T) {
	// A node crash mid-run aborts the whole group while every node holds
	// a spilled round on disk. The per-node deferred store release must
	// still remove every temp file — on the crashed node and on the
	// aborted survivors alike.
	dir := t.TempDir()
	_, err := runBounded(t, Options{
		Nodes:   3,
		Timeout: 5 * time.Second,
		Core:    core.Options{MemBudget: 1, SpillDir: dir},
		Fault:   &cluster.FaultPlan{FailRank: 2, FailCollective: 2},
	}, 30*time.Second)
	if err == nil {
		t.Fatal("Run succeeded despite an injected node crash")
	}
	if !errors.Is(err, cluster.ErrInjected) {
		t.Fatalf("root cause lost: got %v", err)
	}
	if n := spillDirEntries(t, dir); n != 0 {
		t.Fatalf("%d spill files left behind after an aborted run", n)
	}
}

func TestSpillCleanupOnCancelParallel(t *testing.T) {
	// Same guarantee on the cancel path: the pre-fired cancel lands while
	// spilled rounds exist (or before any does — both must end clean).
	dir := t.TempDir()
	cancel := make(chan struct{})
	close(cancel)
	_, err := runBounded(t, Options{
		Nodes:  2,
		Cancel: cancel,
		Core:   core.Options{MemBudget: 1, SpillDir: dir},
		Fault:  &cluster.FaultPlan{Delay: 10 * time.Millisecond, DelayFrom: -1, DelayTo: -1},
	}, 30*time.Second)
	if err == nil {
		t.Fatal("Run succeeded despite cancellation")
	}
	if !errors.Is(err, cluster.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if n := spillDirEntries(t, dir); n != 0 {
		t.Fatalf("%d spill files left behind after a canceled run", n)
	}
}
