package dnc

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"elmocomp/internal/bitset"
	"elmocomp/internal/cluster"
	"elmocomp/internal/core"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/parallel"
	"elmocomp/internal/ratmat"
	"elmocomp/internal/reduce"
)

func toyReduced(t *testing.T) *reduce.Reduced {
	t.Helper()
	red, err := reduce.Network(model.Toy(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return red
}

func serialSupports(t *testing.T, N *ratmat.Matrix, rev []bool) []bitset.Set {
	t.Helper()
	p, err := nullspace.New(N, rev, nullspace.Heuristics{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return core.CanonicalSupports(res)
}

func keysOf(supports []bitset.Set) string {
	keys := make([]string, len(supports))
	for i, b := range supports {
		keys[i] = b.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

func colsOf(red *reduce.Reduced, names ...string) []int {
	var out []int
	for _, n := range names {
		out = append(out, red.ColumnIndexByOriginal(n))
	}
	return out
}

// TestToyPaperExample reproduces section III-A: partitioning the toy
// network across (r6r, r8r) yields four subproblems with 2 EFMs each.
func TestToyPaperExample(t *testing.T) {
	red := toyReduced(t)
	res, err := Run(red.N, red.Reversibilities(), Options{
		Partition: colsOf(red, "r6r", "r8r"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subproblems) != 4 {
		t.Fatalf("%d subproblems, want 4", len(res.Subproblems))
	}
	for _, sub := range res.Subproblems {
		if got := sub.EFMCount(); got != 2 {
			t.Errorf("subset %d: %d EFMs, want 2 (paper's EFMr%02b)", sub.ID, got, sub.ID)
		}
	}
	if len(res.Supports) != 8 {
		t.Fatalf("total %d EFMs, want 8", len(res.Supports))
	}
}

// TestToyPartitionR8rR9 checks the paper's section II-E example: across
// (r8r, r9) the class sizes are {2, 3, 2, 1} (r9 lives in the merged
// r3*r9 column after reduction).
func TestToyPartitionR8rR9(t *testing.T) {
	red := toyReduced(t)
	res, err := Run(red.N, red.Reversibilities(), Options{
		Partition: colsOf(red, "r8r", "r9"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, sub := range res.Subproblems {
		sizes = append(sizes, sub.EFMCount())
	}
	sort.Ints(sizes)
	want := []int{1, 2, 2, 3}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("class sizes %v, want %v (paper: {6,8},{1,3,4},{5,7},{2})", sizes, want)
		}
	}
	if len(res.Supports) != 8 {
		t.Fatalf("total %d EFMs, want 8", len(res.Supports))
	}
}

// TestUnionMatchesSerial verifies the partition property on several
// networks and partition choices: the union over subproblems equals the
// serial EFM set and the classes are pairwise disjoint.
func TestUnionMatchesSerial(t *testing.T) {
	nets := []string{
		`
name branch
in : Aext => A
b1 : A => B
b2 : A => C
o1 : B => Bext
o2 : C => Cext
x : B <=> C
`, `
name revcycle
in : Aext <=> A
c1 : A <=> B
c2 : B <=> C
c3 : C <=> A
out : B => Bext
`,
	}
	nets = append(nets, "") // sentinel for the toy network
	for _, src := range nets {
		var red *reduce.Reduced
		var err error
		if src == "" {
			red = toyReduced(t)
		} else {
			n, perr := model.ParseString(src)
			if perr != nil {
				t.Fatal(perr)
			}
			red, err = reduce.Network(n, reduce.Options{})
			if err != nil {
				t.Fatal(err)
			}
		}
		want := keysOf(serialSupports(t, red.N, red.Reversibilities()))
		for qsub := 1; qsub <= 3; qsub++ {
			if _, err := AutoPartition(red.N, red.Reversibilities(), qsub); err != nil {
				continue // network too small for this qsub
			}
			res, err := Run(red.N, red.Reversibilities(), Options{Qsub: qsub})
			if err != nil {
				t.Fatalf("qsub=%d: %v", qsub, err)
			}
			if got := keysOf(res.Supports); got != want {
				t.Fatalf("qsub=%d: union differs from serial\n got %s\nwant %s", qsub, got, want)
			}
			// Disjointness: no support may appear twice.
			seen := map[string]bool{}
			for _, b := range res.Supports {
				k := b.String()
				if seen[k] {
					t.Fatalf("qsub=%d: support %s appears in two classes", qsub, k)
				}
				seen[k] = true
			}
		}
	}
}

// TestProposition1 checks Prop. 1 directly: stopping the serial engine
// qsub rows early, the columns with all last rows non-zero are exactly
// the EFMs with those reactions non-zero.
func TestProposition1(t *testing.T) {
	red := toyReduced(t)
	partition := colsOf(red, "r6r", "r8r")
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{ForceLast: partition})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, core.Options{LastRow: p.Q() - 2})
	if err != nil {
		t.Fatal(err)
	}
	// Count intermediate columns with both last rows non-zero.
	count := 0
	for i := 0; i < res.Modes.Len(); i++ {
		if res.Modes.Test(i, p.Q()-1) && res.Modes.Test(i, p.Q()-2) {
			count++
		}
	}
	// The full run has exactly 2 EFMs using both r6r and r8r (§III-A).
	if count != 2 {
		t.Fatalf("Prop 1: %d columns with both partition rows non-zero, want 2", count)
	}
}

func TestCandidateReduction(t *testing.T) {
	// The paper's Table III headline: divide-and-conquer reduces the
	// cumulative number of intermediate candidates relative to the
	// unsplit run (159.6e9 -> 81.7e9 on Network I). Check the same
	// direction on the toy network.
	red := toyReduced(t)
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := core.Run(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(red.N, red.Reversibilities(), Options{
		Partition: colsOf(red, "r6r", "r8r"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPairs() > serial.TotalPairs() {
		t.Logf("note: D&C generated %d candidates vs serial %d (toy network is too small to benefit)",
			res.TotalPairs(), serial.TotalPairs())
	}
	if res.TotalPairs() <= 0 {
		t.Fatal("no candidate accounting")
	}
}

func TestAutoPartition(t *testing.T) {
	red := toyReduced(t)
	cols, err := AutoPartition(red.N, red.Reversibilities(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 {
		t.Fatalf("AutoPartition returned %v", cols)
	}
	// The reversible-last heuristic puts r6r and r8r at the bottom.
	names := map[string]bool{}
	for _, c := range cols {
		names[red.Cols[c].Name] = true
	}
	if !names["r6r"] || !names["r8r"] {
		t.Fatalf("auto partition picked %v, expected the reversible tail rows r6r,r8r", names)
	}
	if _, err := AutoPartition(red.N, red.Reversibilities(), 99); err == nil {
		t.Fatal("oversized qsub accepted")
	}
}

func TestAdaptiveResplit(t *testing.T) {
	// Force re-splitting with a tiny mode budget; the result must still
	// be the full EFM set.
	red := toyReduced(t)
	want := keysOf(serialSupports(t, red.N, red.Reversibilities()))
	res, err := Run(red.N, red.Reversibilities(), Options{
		Qsub:     1,
		MaxDepth: 6,
		Parallel: parallel.Options{Core: core.Options{MaxModes: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(res.Supports); got != want {
		t.Fatalf("re-split union differs:\n got %s\nwant %s", got, want)
	}
	resplit := false
	for _, sub := range res.Subproblems {
		if len(sub.Children) > 0 {
			resplit = true
		}
	}
	if !resplit {
		t.Fatal("expected at least one adaptive re-split with MaxModes=4")
	}
}

func TestUnresolvedAtDepthLimit(t *testing.T) {
	// Budget so tight that no subproblem can finish, and no re-split
	// depth: the run must degrade to all-unresolved instead of failing.
	red := toyReduced(t)
	res, err := Run(red.N, red.Reversibilities(), Options{
		Qsub:     1,
		MaxDepth: 1,
		Parallel: parallel.Options{Core: core.Options{MaxModes: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete() {
		t.Fatal("budget 1 should leave unresolved classes")
	}
	unresolved := 0
	var walk func(s *Subproblem)
	walk = func(s *Subproblem) {
		if s.Unresolved {
			unresolved++
			if len(s.Supports) != 0 {
				t.Fatal("unresolved class reported supports")
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, s := range res.Subproblems {
		walk(s)
	}
	if unresolved == 0 {
		t.Fatal("no unresolved classes recorded")
	}
	// A complete run reports Complete().
	full, err := Run(red.N, red.Reversibilities(), Options{Qsub: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Complete() {
		t.Fatal("unbudgeted run should be complete")
	}
}

func TestInvalidOptions(t *testing.T) {
	red := toyReduced(t)
	if _, err := Run(red.N, red.Reversibilities(), Options{
		Partition: []int{999},
	}); err == nil {
		t.Fatal("out-of-range partition column accepted")
	}
	if _, err := Run(red.N, red.Reversibilities(), Options{
		Parallel: parallel.Options{Core: core.Options{LastRow: 3}},
	}); err == nil {
		t.Fatal("caller-managed LastRow accepted")
	}
}

// TestDependentPartition: a partition whose columns are linearly
// dependent is refused by Run with the positions of a minimal dependent
// set, and a class that reaches ExecClass with such columns anyway (a
// worker takes the partition off the wire) fails instead of coming back
// Skipped: only a trivial kernel makes a class infeasible.
func TestDependentPartition(t *testing.T) {
	n, err := model.ParseString(`
name partitions
u1 : Aext => A
u2 : A => B
u3 : B => Bext
c1 : A <=> C
c2 : C <=> D
c3 : D <=> A
e1 : C => Cext
e2 : D => Dext
`)
	if err != nil {
		t.Fatal(err)
	}
	red, err := reduce.Network(n, reduce.Options{MergeDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	rev := red.Reversibilities()
	for _, tc := range []struct {
		names []string
		want  string // PartitionError.Positions
	}{
		{[]string{"c1", "c2", "c3"}, "[0 1 2]"},
		{[]string{"e1", "c1", "c2", "c3"}, "[1 2 3]"},
		{[]string{"u1", "u2"}, "[0 1]"},
		{[]string{"u2", "u3"}, "[0 1]"}, // merged into one reduced column
		{[]string{"u2", "c1", "u3"}, "[0 2]"},
	} {
		part := colsOf(red, tc.names...)
		_, err := Run(red.N, rev, Options{Partition: part})
		var perr *PartitionError
		if !errors.As(err, &perr) || fmt.Sprint(perr.Positions) != tc.want {
			t.Fatalf("partition %v: err = %v, want a PartitionError at %s", tc.names, err, tc.want)
		}
		all := uint64(1)<<uint(len(part)) - 1
		out, err := ExecClass(red.N, rev, part, all, parallel.Options{})
		if err == nil {
			t.Fatalf("partition %v: class %d ran (skipped=%t) with dependent forced columns", tc.names, all, out.Skipped)
		}
	}
	if _, err := Run(red.N, rev, Options{Partition: colsOf(red, "c1", "c2")}); err != nil {
		t.Fatalf("independent partition refused: %v", err)
	}
}

// TestNetworkIPartitionsAdmitted: the partitions the paper and the
// record run on Network I are independent, so Run admits them.
func TestNetworkIPartitionsAdmitted(t *testing.T) {
	red, err := reduce.Network(model.YeastI(), reduce.Options{MergeDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	rev := red.Reversibilities()
	parts := [][]int{colsOf(red, "R36r", "R29r"), colsOf(red, "R89r", "R74r")}
	for _, qsub := range []int{2, 3} {
		part, err := AutoPartition(red.N, rev, qsub)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	for _, part := range parts {
		if slices.Contains(part, -1) {
			t.Fatalf("partition %v names a reaction reduction removed", part)
		}
		if c := dependentColumns(red.N, part); c != nil {
			t.Fatalf("partition %v refused: positions %v dependent", part, c)
		}
	}
}

// runDncBounded fails the test if the divide-and-conquer driver does
// not return within d.
func runDncBounded(t *testing.T, red *reduce.Reduced, opts Options, d time.Duration) (*Result, error) {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := Run(red.N, red.Reversibilities(), opts)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(d):
		t.Fatalf("dnc.Run wedged: no return within %v", d)
		return nil, nil
	}
}

func TestInjectedFaultPropagates(t *testing.T) {
	// A node crash inside a subproblem enumeration must surface as an
	// error from the driver — in bounded time, not a wedge.
	red := toyReduced(t)
	_, err := runDncBounded(t, red, Options{
		Qsub: 1,
		Parallel: parallel.Options{
			Nodes:   2,
			Timeout: 5 * time.Second,
			Fault:   &cluster.FaultPlan{FailRank: 1, FailCollective: 1},
		},
	}, 30*time.Second)
	if err == nil {
		t.Fatal("dnc.Run succeeded despite an injected node crash")
	}
	if !errors.Is(err, cluster.ErrInjected) {
		t.Fatalf("root cause lost through the driver: %v", err)
	}
}

func TestInjectedFaultDoesNotTriggerResplit(t *testing.T) {
	// With a mode budget configured, only genuine budget overflows
	// (core.ErrBudget) may trigger adaptive re-splitting; a communication
	// fault must propagate instead of being retried at greater depth.
	red := toyReduced(t)
	res, err := runDncBounded(t, red, Options{
		Qsub:     1,
		MaxDepth: 6,
		Parallel: parallel.Options{
			Nodes:   2,
			Timeout: 5 * time.Second,
			Core:    core.Options{MaxModes: 100000}, // generous: never genuinely exceeded
			Fault:   &cluster.FaultPlan{FailRank: 0, FailCollective: 1},
		},
	}, 30*time.Second)
	if err == nil {
		t.Fatalf("injected fault swallowed by the re-split path (result: %v)", res)
	}
	if !errors.Is(err, cluster.ErrInjected) {
		t.Fatalf("got %v, want the injected failure", err)
	}
	if errors.Is(err, core.ErrBudget) {
		t.Fatalf("fault misclassified as a budget overflow: %v", err)
	}
}

func TestMultiNodeDnc(t *testing.T) {
	red := toyReduced(t)
	want := keysOf(serialSupports(t, red.N, red.Reversibilities()))
	res, err := Run(red.N, red.Reversibilities(), Options{
		Qsub:     2,
		Parallel: parallel.Options{Nodes: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(res.Supports); got != want {
		t.Fatalf("multi-node D&C union differs:\n got %s\nwant %s", got, want)
	}
}

func TestWorkersMatchSerialDnC(t *testing.T) {
	// The shared-memory worker layer inside each subproblem enumeration
	// must not change the divide-and-conquer union.
	red := toyReduced(t)
	want := keysOf(serialSupports(t, red.N, red.Reversibilities()))
	for _, workers := range []int{2, 4} {
		res, err := Run(red.N, red.Reversibilities(), Options{
			Qsub: 2,
			Parallel: parallel.Options{
				Nodes: 2,
				Core:  core.Options{Workers: workers},
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := keysOf(res.Supports); got != want {
			t.Fatalf("workers=%d: union differs from serial\n got %s\nwant %s", workers, got, want)
		}
	}
}
