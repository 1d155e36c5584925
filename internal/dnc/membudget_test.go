package dnc

import (
	"testing"

	"elmocomp/internal/core"
	"elmocomp/internal/parallel"
)

// TestMemBudgetResplit forces the memory-budget path (memResplitOpts).
// The union must equal the unbudgeted run exactly and the tree must hash
// to pinMemResplitTree at every group count, with the MemResplit markers
// and spill counters proving the path was actually taken.
func TestMemBudgetResplit(t *testing.T) {
	red := toyReduced(t)
	want := keysOf(serialSupports(t, red.N, red.Reversibilities()))
	for _, groups := range []int{0, 1, 2, 4} {
		o := memResplitOpts(t)
		o.GroupConcurrency = groups
		res, err := Run(red.N, red.Reversibilities(), o)
		if err != nil {
			t.Fatalf("groups=%d: %v", groups, err)
		}
		if got := keysOf(res.Supports); got != want {
			t.Fatalf("groups=%d: budgeted union differs:\n got %s\nwant %s", groups, got, want)
		}
		if got := treeHash(res); got != pinMemResplitTree {
			t.Fatalf("groups=%d: memory re-split tree hash %s, want %s\n%s", groups, got, pinMemResplitTree, treeKey(res))
		}
		if !res.Complete() {
			t.Fatalf("groups=%d: memory budget left classes unresolved", groups)
		}
		if st := res.Store(); st.Spills == 0 {
			t.Fatalf("groups=%d: depth-limit classes never spilled: %+v", groups, st)
		}
		var n int64 // the tree's view of the scheduler's counter
		res.Walk(func(s *Subproblem) {
			if s.MemResplit {
				n++
			}
		})
		if n == 0 || n != res.Sched.MemResplits {
			t.Fatalf("groups=%d: %d memory re-splits in the tree, %d counted by the scheduler (want equal, > 0)",
				groups, n, res.Sched.MemResplits)
		}
		if res.Sched.MemResplits > res.Sched.Resplits {
			t.Fatalf("groups=%d: memory re-splits %d exceed total re-splits %d",
				groups, res.Sched.MemResplits, res.Sched.Resplits)
		}
	}
}

// TestMemBudgetSoftWithoutDepth verifies the budget alone never fails a
// run: with MaxDepth 1, the depth-1 re-split children are already at the
// limit, so strictness lapses there and the store must absorb the
// over-budget sets (compressed or spilled) to completion.
func TestMemBudgetSoftWithoutDepth(t *testing.T) {
	red := toyReduced(t)
	want := keysOf(serialSupports(t, red.N, red.Reversibilities()))
	res, err := Run(red.N, red.Reversibilities(), Options{
		Qsub:     1,
		MaxDepth: 1,
		Parallel: parallel.Options{Core: core.Options{
			MemBudget: 1,
			SpillDir:  t.TempDir(),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(res.Supports); got != want {
		t.Fatalf("soft-budget union differs:\n got %s\nwant %s", got, want)
	}
	if !res.Complete() {
		t.Fatal("soft memory budget must not leave classes unresolved")
	}
}
