package dnc

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"elmocomp/internal/cluster"
	"elmocomp/internal/core"
	"elmocomp/internal/parallel"
	"elmocomp/internal/reduce"
	"elmocomp/internal/synth"
)

// treeKey serializes a result's subproblem tree — IDs, partitions,
// depths, flags and supports, in tree order — so two runs can be
// compared for byte-identical structure, not just equal support unions.
func treeKey(res *Result) string {
	var b strings.Builder
	var walk func(s *Subproblem)
	walk = func(s *Subproblem) {
		fmt.Fprintf(&b, "{id=%d part=%v depth=%d skip=%t unres=%t pairs=%d sup=[",
			s.ID, s.Partition, s.Depth, s.Skipped, s.Unresolved, s.Pairs)
		for _, sp := range s.Supports {
			b.WriteString(sp.String())
			b.WriteByte(',')
		}
		b.WriteString("] ch=[")
		for _, c := range s.Children {
			walk(c)
		}
		b.WriteString("]}")
	}
	fmt.Fprintf(&b, "part=%v|", res.Partition)
	for _, s := range res.Subproblems {
		walk(s)
	}
	return b.String()
}

// Frozen references for the re-split fixtures: SHA-256 of treeKey as the
// sequential divide-and-conquer loop (solve/resplit, deleted in PR 17)
// built it on the toy network at commit 0d14ba4. That loop recursed
// inline in class-ID order with no queue at all, so a tree that still
// hashes to these literals has not been reshaped by scheduling.
const (
	// Options{Qsub: 1, MaxDepth: 6, Core.MaxModes: 4}
	pinModeResplitTree = "5f7471cc03fcd1703456a0e5132f476baf90fa2d959598229395614d8423ac43"
	// Options{Qsub: 1, MaxDepth: 2, Core.MemBudget: 1}
	pinMemResplitTree = "7956507f6d54335690f1dd315da40d09f3e8337c89f7b3c7574cdc1a7807cb0e"
)

func treeHash(res *Result) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(treeKey(res))))
}

// modeResplitOpts is the fixture behind pinModeResplitTree.
func modeResplitOpts() Options {
	return Options{
		Qsub:     1,
		MaxDepth: 6,
		Parallel: parallel.Options{Core: core.Options{MaxModes: 4}},
	}
}

// memResplitOpts is the fixture behind pinMemResplitTree: a budget far
// below any class's flat surviving set makes every class refine through
// core.ErrMemBudget until the depth limit, where strictness lapses and
// the store spills the classes to completion.
func memResplitOpts(t *testing.T) Options {
	return Options{
		Qsub:     1,
		MaxDepth: 2,
		Parallel: parallel.Options{Core: core.Options{MemBudget: 1, SpillDir: t.TempDir()}},
	}
}

// TestGroupsMatchOneGroup is the core determinism contract: the default
// run is one local group, and at every GroupConcurrency the supports
// AND subproblem tree must be byte-identical to it. (Equality with
// Algorithm 1 is TestUnionMatchesSerial's and TestProposition1's job.)
func TestGroupsMatchOneGroup(t *testing.T) {
	red := toyReduced(t)
	for _, qsub := range []int{1, 2} {
		one, err := Run(red.N, red.Reversibilities(), Options{Qsub: qsub})
		if err != nil {
			t.Fatal(err)
		}
		if one.Sched == nil || one.Sched.MaxActive != 1 {
			t.Fatalf("qsub=%d: default run is not one local group: %+v", qsub, one.Sched)
		}
		wantTree := treeKey(one)
		wantSup := keysOf(one.Supports)
		for _, groups := range []int{1, 2, 4} {
			res, err := Run(red.N, red.Reversibilities(), Options{Qsub: qsub, GroupConcurrency: groups})
			if err != nil {
				t.Fatalf("qsub=%d groups=%d: %v", qsub, groups, err)
			}
			if got := keysOf(res.Supports); got != wantSup {
				t.Fatalf("qsub=%d groups=%d: supports differ\n got %s\nwant %s", qsub, groups, got, wantSup)
			}
			if got := treeKey(res); got != wantTree {
				t.Fatalf("qsub=%d groups=%d: subproblem tree differs\n got %s\nwant %s", qsub, groups, got, wantTree)
			}
		}
	}
}

// TestResplitTreePinnedAcrossGroups forces budget-triggered re-splits
// and checks that the re-enqueued children rebuild, at every group
// count, exactly the tree frozen in pinModeResplitTree.
func TestResplitTreePinnedAcrossGroups(t *testing.T) {
	red := toyReduced(t)
	for _, groups := range []int{-1, 0, 1, 2, 4} { // a negative count reads as 0
		o := modeResplitOpts()
		o.GroupConcurrency = groups
		res, err := Run(red.N, red.Reversibilities(), o)
		if err != nil {
			t.Fatalf("groups=%d: %v", groups, err)
		}
		if got := treeHash(res); got != pinModeResplitTree {
			t.Fatalf("groups=%d: re-split tree hash %s, want %s\n%s", groups, got, pinModeResplitTree, treeKey(res))
		}
		if res.Sched.Resplits == 0 {
			t.Fatalf("groups=%d: no re-splits recorded (MaxModes=4 must overflow)", groups)
		}
	}
}

// TestSchedulerCounters sanity-checks the accounting on a clean run:
// every non-skipped class is enqueued exactly once and stolen exactly
// once, and nothing is left unresolved.
func TestSchedulerCounters(t *testing.T) {
	red := toyReduced(t)
	res, err := Run(red.N, red.Reversibilities(), Options{Qsub: 2, GroupConcurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sched
	var feasible int64
	for _, sub := range res.Subproblems {
		if !sub.Skipped {
			feasible++
		}
	}
	if s.Enqueued != feasible || s.Steals != feasible {
		t.Fatalf("enqueued=%d steals=%d, want both %d (feasible classes)", s.Enqueued, s.Steals, feasible)
	}
	if s.Resplits != 0 || s.Unresolved != 0 {
		t.Fatalf("unexpected resplits=%d unresolved=%d on an unbudgeted run", s.Resplits, s.Unresolved)
	}
	if len(s.Classes) != int(feasible) {
		t.Fatalf("%d class records, want %d", len(s.Classes), feasible)
	}
	if s.MaxActive < 1 || s.MaxActive > 2 {
		t.Fatalf("MaxActive %d out of [1,2]", s.MaxActive)
	}
	if res.PeakConcurrentBytes <= 0 {
		t.Fatalf("PeakConcurrentBytes %d, want > 0", res.PeakConcurrentBytes)
	}
	if res.PeakConcurrentBytes < res.PeakNodeBytes() {
		t.Fatalf("concurrent peak %d below single-node peak %d", res.PeakConcurrentBytes, res.PeakNodeBytes())
	}
}

// TestSchedStatsFreshPerRepetition pins the benchmark-repetition
// contract: every run counts into its own scheduler (runScheduled), so
// back-to-back runs — bench repetitions, or any
// harness looping over group counts — must report identical
// deterministic counters, never the previous repetition's folded in.
func TestSchedStatsFreshPerRepetition(t *testing.T) {
	red := toyReduced(t)
	opts := Options{Qsub: 2, GroupConcurrency: 2}
	var first *Result
	for rep := 0; rep < 3; rep++ {
		res, err := Run(red.N, red.Reversibilities(), opts)
		if err != nil {
			t.Fatalf("repetition %d: %v", rep, err)
		}
		if rep == 0 {
			first = res
			if res.Sched.Enqueued == 0 {
				t.Fatal("first repetition recorded no scheduler work")
			}
			continue
		}
		s, w := res.Sched, first.Sched
		if s.Enqueued != w.Enqueued || s.Steals != w.Steals || s.Resplits != w.Resplits ||
			s.MemResplits != w.MemResplits || s.Unresolved != w.Unresolved || len(s.Classes) != len(w.Classes) {
			t.Fatalf("repetition %d counters inflated:\n got %+v\nwant %+v", rep, s, w)
		}
	}
}

// TestSchedulerProgressSerialized verifies the documented Progress
// contract: the callback is never entered concurrently with itself, and
// every enumerated class arrives exactly once.
func TestSchedulerProgressSerialized(t *testing.T) {
	red := toyReduced(t)
	var inside, overlaps int32
	got := make(map[uint64]int)
	res, err := Run(red.N, red.Reversibilities(), Options{
		Qsub:             2,
		GroupConcurrency: 4,
		Progress: func(sub *Subproblem) {
			if atomic.AddInt32(&inside, 1) != 1 {
				atomic.AddInt32(&overlaps, 1)
			}
			got[sub.ID]++ // unsynchronized on purpose: -race flags broken serialization
			time.Sleep(time.Millisecond)
			atomic.AddInt32(&inside, -1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if overlaps != 0 {
		t.Fatalf("Progress entered concurrently %d times", overlaps)
	}
	for _, sub := range res.Subproblems {
		want := 1
		if sub.Skipped {
			want = 0
		}
		if got[sub.ID] != want {
			t.Fatalf("class %d: %d Progress calls, want %d", sub.ID, got[sub.ID], want)
		}
	}
}

// TestSchedulerFaultAborts: a node crash inside one group's enumeration
// must trip the group-scoped abort latch and surface the root cause —
// in bounded time, with the other groups drained, not wedged.
func TestSchedulerFaultAborts(t *testing.T) {
	red := toyReduced(t)
	for _, groups := range []int{1, 3} {
		_, err := runDncBounded(t, red, Options{
			Qsub:             2,
			GroupConcurrency: groups,
			Parallel: parallel.Options{
				Nodes:   2,
				Timeout: 5 * time.Second,
				Fault:   &cluster.FaultPlan{FailRank: 1, FailCollective: 1},
			},
		}, 30*time.Second)
		if err == nil {
			t.Fatalf("groups=%d: scheduler succeeded despite an injected node crash", groups)
		}
		if !errors.Is(err, cluster.ErrInjected) {
			t.Fatalf("groups=%d: root cause lost through the scheduler: %v", groups, err)
		}
		if errors.Is(err, core.ErrBudget) {
			t.Fatalf("groups=%d: fault misclassified as a budget overflow: %v", groups, err)
		}
	}
}

// TestSchedulerCancel: closing Options.Parallel.Cancel aborts the whole
// scheduler run with cluster.ErrCanceled.
func TestSchedulerCancel(t *testing.T) {
	red := toyReduced(t)
	cancel := make(chan struct{})
	close(cancel) // cancelled before the run starts: every class must abort
	_, err := runDncBounded(t, red, Options{
		Qsub:             2,
		GroupConcurrency: 2,
		Parallel:         parallel.Options{Cancel: cancel},
	}, 30*time.Second)
	if err == nil {
		t.Fatal("cancelled scheduler run succeeded")
	}
	if !errors.Is(err, cluster.ErrCanceled) {
		t.Fatalf("got %v, want cluster.ErrCanceled", err)
	}
}

// TestSchedulerMultiNode: the scheduler composed with multi-node inner
// enumerations still matches the serial EFM set.
func TestSchedulerMultiNode(t *testing.T) {
	red := toyReduced(t)
	want := keysOf(serialSupports(t, red.N, red.Reversibilities()))
	res, err := Run(red.N, red.Reversibilities(), Options{
		Qsub:             2,
		GroupConcurrency: 2,
		Parallel:         parallel.Options{Nodes: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(res.Supports); got != want {
		t.Fatalf("multi-node scheduler union differs:\n got %s\nwant %s", got, want)
	}
}

// benchReduced builds the medium synthetic workload used by the
// dnc-sched experiment: large enough that the 2^qsub classes carry real
// work, small enough for CI.
func benchReduced(b *testing.B) *reduce.Reduced {
	b.Helper()
	net, err := synth.Network(synth.Params{
		Layers: 6, Width: 6, CrossLinks: 14,
		ReversibleFraction: 0.2, MaxCoef: 2, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	red, err := reduce.Network(net, reduce.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return red
}

// BenchmarkDnCSched measures the scheduler's group-level speedup on the
// medium synthetic workload at qsub=3. Inner parallelism is pinned to
// one node and one worker so group concurrency is the only axis — on a
// multicore machine groups=4 should beat groups=1 by well over 1.5x
// (the classes are independent; the residual is queue-order imbalance).
func BenchmarkDnCSched(b *testing.B) {
	red := benchReduced(b)
	for _, groups := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Run(red.N, red.Reversibilities(), Options{
					Qsub:             3,
					GroupConcurrency: groups,
					Parallel:         parallel.Options{Nodes: 1, Core: core.Options{Workers: 1}},
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Supports) == 0 {
					b.Fatal("no EFMs")
				}
			}
		})
	}
}
