package parallel

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"elmocomp/internal/core"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/reduce"
	"elmocomp/internal/synth"
)

func toyProblem(t *testing.T) *nullspace.Problem {
	t.Helper()
	red, err := reduce.Network(model.Toy(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// efmgenProblem is `efmgen -layers 5 -width 5 -cross 10 -seed 9`, the
// network the verify notes drive the CLIs with.
func efmgenProblem(t *testing.T) *nullspace.Problem {
	t.Helper()
	n, err := synth.Network(synth.Params{Layers: 5, Width: 5, CrossLinks: 10, ReversibleFraction: 0.25, MaxCoef: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	red, err := reduce.Network(n, reduce.Options{MergeDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func canonicalKeys(res *core.Result) string {
	var keys []string
	for _, b := range core.CanonicalSupports(res) {
		keys = append(keys, b.String())
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

func TestParallelMatchesSerialAcrossNodeCounts(t *testing.T) {
	p := toyProblem(t)
	serial, err := core.Run(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalKeys(serial)
	for _, nodes := range []int{1, 2, 3, 4, 7} {
		res, err := Run(p, Options{Nodes: nodes})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if got := canonicalKeys(res.Result); got != want {
			t.Fatalf("nodes=%d: EFM set differs from serial\n got %s\nwant %s", nodes, got, want)
		}
		if res.Modes.Len() != serial.Modes.Len() {
			t.Fatalf("nodes=%d: %d modes, serial %d", nodes, res.Modes.Len(), serial.Modes.Len())
		}
	}
}

func TestParallelTotalPairsInvariant(t *testing.T) {
	// The combinatorial decomposition partitions the pair space: the
	// total candidate count must be identical for every node count.
	p := toyProblem(t)
	serial, err := core.Run(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 3, 5} {
		res, err := Run(p, Options{Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalPairs() != serial.TotalPairs() {
			t.Fatalf("nodes=%d: pairs %d != serial %d", nodes, res.TotalPairs(), serial.TotalPairs())
		}
	}
}

func TestParallelOverTCP(t *testing.T) {
	p := toyProblem(t)
	serial, err := core.Run(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Options{Nodes: 3, Transport: TCP})
	if err != nil {
		t.Fatal(err)
	}
	if canonicalKeys(res.Result) != canonicalKeys(serial) {
		t.Fatal("TCP run diverged from serial")
	}
	if res.Comm.Bytes == 0 || res.Comm.Messages == 0 {
		t.Fatalf("no traffic recorded over TCP: %+v", res.Comm)
	}
}

func TestCommunicationAccountedOnlyForMultiNode(t *testing.T) {
	p := toyProblem(t)
	res1, err := Run(p, Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Comm.Bytes != 0 {
		t.Fatalf("1-node run sent %d bytes", res1.Comm.Bytes)
	}
	res4, err := Run(p, Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res4.Comm.Bytes == 0 {
		t.Fatal("4-node run recorded no traffic")
	}
	if res4.Comm.Messages < int64(4*3*(p.Q()-p.D)) {
		t.Fatalf("expected at least one allgather round per iteration, got %d messages", res4.Comm.Messages)
	}
}

func TestPhaseTimesPopulated(t *testing.T) {
	p := toyProblem(t)
	res, err := Run(p, Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodePhases) != 2 {
		t.Fatalf("phases for %d nodes", len(res.NodePhases))
	}
	m := res.MaxPhases()
	if m.Total() <= 0 {
		t.Fatalf("no time recorded: %+v", m)
	}
	if res.PeakNodeBytes <= 0 {
		t.Fatal("peak node bytes not recorded")
	}
}

// exactStats strips the wall-clock fields, leaving every counter a run
// must reproduce exactly.
func exactStats(s core.IterStats) core.IterStats {
	s.GenSeconds, s.TestSeconds, s.MergeSeconds = 0, 0, 0
	return s
}

func TestParallelStatsMatchSerial(t *testing.T) {
	// Every exact per-iteration counter must be the serial run's at every
	// node count — the pair space is partitioned, not changed, and the
	// dealt chunks are column-aligned, so even Visited (pairs probed one
	// by one) cannot tell the nodes apart — and a group of one IS the
	// serial run: the mode set and the store's activity agree too, flat
	// and under a budget that spills every round. The yeast1-dd-R19r
	// prefix is where the generation tree opens.
	yeast := yeastDDProblem(t)
	problems := map[string]struct {
		p    *nullspace.Problem
		last int
	}{
		"toy":                   {toyProblem(t), 0},
		"efmgen":                {efmgenProblem(t), 0},
		"yeast1-dd-R19r prefix": {yeast, yeast.D + 25},
	}
	for name, f := range problems {
		p := f.p
		for _, budget := range []int64{0, 1} {
			copts := core.Options{LastRow: f.last, MemBudget: budget, SpillDir: t.TempDir()}
			serial, err := core.Run(p, copts)
			if err != nil {
				t.Fatal(err)
			}
			if (serial.Store.Spills > 0) != (budget > 0) {
				t.Fatalf("%s budget=%d: serial store %+v", name, budget, serial.Store)
			}
			for _, nodes := range []int{1, 2, 3, 4} {
				label := fmt.Sprintf("%s budget=%d nodes=%d", name, budget, nodes)
				res, err := Run(p, Options{Nodes: nodes, Core: copts})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got, want := res.Modes.Fingerprint(), serial.Modes.Fingerprint(); got != want {
					t.Fatalf("%s: fingerprint %016x, serial %016x", label, got, want)
				}
				if len(res.Stats) != len(serial.Stats) {
					t.Fatalf("%s: iteration counts differ: %d vs %d", label, len(res.Stats), len(serial.Stats))
				}
				for i, s := range res.Stats {
					if exactStats(s) != exactStats(serial.Stats[i]) {
						t.Fatalf("%s iteration %d: stats diverge: parallel %+v vs serial %+v", label, i, s, serial.Stats[i])
					}
				}
				if nodes == 1 && res.Store != serial.Store {
					t.Fatalf("%s: store %+v, serial %+v", label, res.Store, serial.Store)
				}
			}
		}
	}
}

func TestParallelLastRow(t *testing.T) {
	// Stopping early must leave the same intermediate mode count as the
	// serial engine (Proposition 1 plumbing for divide-and-conquer).
	p := toyProblem(t)
	last := p.Q() - 2
	serial, err := core.Run(p, core.Options{LastRow: last})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Options{Nodes: 2, Core: core.Options{LastRow: last}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Modes.Len() != serial.Modes.Len() {
		t.Fatalf("early-stopped parallel %d modes, serial %d", res.Modes.Len(), serial.Modes.Len())
	}
	if res.Modes.FirstRow() != last {
		t.Fatalf("stopped at row %d, want %d", res.Modes.FirstRow(), last)
	}
}

func TestParallelYeastSubset(t *testing.T) {
	// A medium-size real instance: run Network I's algorithm truncated
	// a few rows short (keeps runtime small) and check node-count
	// equivalence on intermediate state.
	if testing.Short() {
		t.Skip("medium-size instance")
	}
	red, err := reduce.Network(model.YeastI(), reduce.Options{MergeDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		t.Fatal(err)
	}
	last := p.D + 25
	serial, err := core.Run(p, core.Options{LastRow: last})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Options{Nodes: 4, Core: core.Options{LastRow: last}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Modes.Len() != serial.Modes.Len() || res.TotalPairs() != serial.TotalPairs() {
		t.Fatalf("yeast subset diverged: %d/%d modes, %d/%d pairs",
			res.Modes.Len(), serial.Modes.Len(), res.TotalPairs(), serial.TotalPairs())
	}
}

func TestHybridNodesWorkersMatchSerial(t *testing.T) {
	// The hybrid decomposition — nodes × shared-memory workers per node —
	// must be bit-identical to the plain serial engine, values included,
	// for every combination: the node deals and worker chunks lay the
	// candidates down in the serial generation order.
	yeast := yeastDDProblem(t)
	for _, f := range []struct {
		name  string
		p     *nullspace.Problem
		last  int
		nodes []int
	}{
		{"toy", toyProblem(t), 0, []int{1, 2, 3}},
		{"yeast1-dd-R19r prefix", yeast, yeast.D + 25, []int{2, 3, 4}},
	} {
		serial, err := core.Run(f.p, core.Options{Workers: 1, LastRow: f.last})
		if err != nil {
			t.Fatal(err)
		}
		for _, nodes := range f.nodes {
			for _, workers := range []int{1, 2, 4} {
				for _, tp := range []Transport{InProc, TCP} {
					label := fmt.Sprintf("%s nodes=%d workers=%d transport=%d", f.name, nodes, workers, tp)
					res, err := Run(f.p, Options{Nodes: nodes, Transport: tp, Core: core.Options{Workers: workers, LastRow: f.last}})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got, want := res.Modes.Fingerprint(), serial.Modes.Fingerprint(); got != want {
						t.Fatalf("%s: fingerprint %016x, serial %016x", label, got, want)
					}
					for i, s := range res.Stats {
						if exactStats(s) != exactStats(serial.Stats[i]) {
							t.Fatalf("%s row %d: counters diverge: %+v vs %+v", label, i, s, serial.Stats[i])
						}
					}
				}
			}
		}
	}
}
