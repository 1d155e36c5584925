package synth

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"elmocomp"
	"elmocomp/internal/dnc"
	"elmocomp/internal/model"
	"elmocomp/internal/reduce"
)

// synthSeed offsets the random-network seeds of the differential
// harness, so CI (or a bisecting developer) can sweep fresh networks:
//
//	go test ./internal/synth/ -run Differential -synthseed 1234
var synthSeed = flag.Int64("synthseed", 0, "seed offset for the differential property harness")

// synthBackends selects the enumeration families the cross-family
// harness exercises; with fewer than two the cross-check is vacuous and
// the test skips itself.
//
//	go test ./internal/synth/ -run DifferentialCrossFamily -backends nullspace,revsearch
var synthBackends = flag.String("backends", "nullspace,revsearch", "comma-separated enumeration families for the cross-family harness")

// heavyGrid opts the reversible-heavy grid point into the cross-family
// sweep. Its split cone is so degenerate that reverse search visits
// ~2500 lex-positive bases per vertex (about 2M dictionaries) — minutes
// of exact pivoting that get a dedicated non-race CI job rather than a
// seat in the race lane.
var heavyGrid = flag.Bool("heavygrid", false, "include the degenerate reversible-heavy point in the cross-family sweep")

// differentialPoint is one cell of the size/reversibility grid.
type differentialPoint struct {
	layers, width, cross int
	revFrac              float64
}

// differentialGrid spans tiny to moderate networks, irreversible-only
// to reversible-heavy: the regimes where drivers historically diverge
// (reversible handling, split folding, class extraction).
var differentialGrid = []differentialPoint{
	{layers: 2, width: 2, cross: 1, revFrac: 0},
	{layers: 3, width: 2, cross: 2, revFrac: 0.3},
	{layers: 3, width: 3, cross: 3, revFrac: 0.5},
	{layers: 4, width: 3, cross: 4, revFrac: 0.2},
	{layers: 4, width: 4, cross: 5, revFrac: 0.8},
}

// variant is one driver configuration under differential test.
type variant struct {
	name string
	cfg  elmocomp.Config
	dnc  bool // needs a valid partition; skipped when none exists
}

func variants() []variant {
	v := []variant{
		{name: "serial/workers=1", cfg: elmocomp.Config{Workers: 1}},
		{name: "serial/workers=4", cfg: elmocomp.Config{Workers: 4}},
		{name: "parallel/inproc/nodes=2", cfg: elmocomp.Config{Algorithm: elmocomp.Parallel, Nodes: 2, Workers: 1}},
		{name: "parallel/tcp/nodes=2", cfg: elmocomp.Config{Algorithm: elmocomp.Parallel, Nodes: 2, Workers: 1, OverTCP: true}},
	}
	for _, groups := range []int{0, 2, 4} { // 0 = the default, one group
		v = append(v, variant{
			name: fmt.Sprintf("dnc/groups=%d", groups),
			cfg:  elmocomp.Config{Algorithm: elmocomp.DivideAndConquer, Workers: 1, GroupConcurrency: groups},
			dnc:  true,
		})
	}
	// Memory budget: a deliberately tiny one spills every surviving set
	// and (under dnc) forces memory re-splits, and must be invisible in
	// the result.
	v = append(v,
		variant{name: "serial/membudget=1", cfg: elmocomp.Config{Workers: 1, MemBudgetBytes: 1}},
		variant{name: "parallel/membudget=1/nodes=2", cfg: elmocomp.Config{Algorithm: elmocomp.Parallel, Nodes: 2, Workers: 1, MemBudgetBytes: 1}},
		variant{
			name: "dnc/groups=2/membudget=1",
			cfg: elmocomp.Config{Algorithm: elmocomp.DivideAndConquer, Workers: 1,
				GroupConcurrency: 2, MemBudgetBytes: 1},
			dnc: true,
		},
	)
	return v
}

// dncQsub returns the largest usable partition size (2, then 1) for the
// network, or 0 when the reduced problem is too small to partition at
// all — the dnc variants are then skipped for that grid point.
func dncQsub(t *testing.T, n *model.Network) int {
	t.Helper()
	red, err := reduce.Network(n, reduce.Options{MergeDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, qsub := range []int{2, 1} {
		if _, err := dnc.AutoPartition(red.N, red.Reversibilities(), qsub); err == nil {
			return qsub
		}
	}
	return 0
}

// TestDifferentialDrivers is the cross-driver property harness: for a
// grid of random networks, every driver — serial, worker-pool, cluster
// in-process and over TCP, and divide-and-conquer at several group
// counts — must produce the same
// canonical-support fingerprint and EFM count.
// TestDifferentialSpillBudget pins the memory-wall property on its own:
// a budget of one byte forces every surviving set through the spill tier
// (nothing fits flat, and the compressed form never fits alongside its
// re-materialization), and the run must still match an unbudgeted serial
// run bit for bit — with the store counters proving spilling happened.
func TestDifferentialSpillBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness runs full driver sweeps; skipped with -short")
	}
	pt := differentialGrid[2]
	n, err := Network(Params{
		Layers: pt.layers, Width: pt.width, CrossLinks: pt.cross,
		ReversibleFraction: pt.revFrac, MaxCoef: 2, Seed: *synthSeed + 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := elmocomp.ParseNetworkString(n.String())
	if err != nil {
		t.Fatal(err)
	}
	base, err := elmocomp.ComputeEFMs(net, elmocomp.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Store.Engaged() {
		t.Fatalf("unbudgeted run engaged the store: %+v", base.Store)
	}
	budgeted, err := elmocomp.ComputeEFMs(net, elmocomp.Config{
		Workers: 1, MemBudgetBytes: 1, SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if budgeted.Fingerprint() != base.Fingerprint() || budgeted.Len() != base.Len() {
		t.Fatalf("1-byte budget changed the result: %d EFMs fp %016x, want %d fp %016x",
			budgeted.Len(), budgeted.Fingerprint(), base.Len(), base.Fingerprint())
	}
	if budgeted.Store.Spills == 0 {
		t.Fatalf("1-byte budget never spilled: %+v", budgeted.Store)
	}
}

// crossFamilyGrid is the cross-family sweep: the full differential grid
// plus pointed and degenerate corner cases — an irreversible-only
// network (pointed cone, no splitting at all), a single-chain network
// (one mode, maximally reduced), and a fully reversible one (every
// column split, futile-pair folding on both sides).
func crossFamilyGrid() []differentialPoint {
	return append(append([]differentialPoint(nil), differentialGrid...),
		differentialPoint{layers: 3, width: 3, cross: 0, revFrac: 0}, // pointed, no cross links
		differentialPoint{layers: 4, width: 1, cross: 0, revFrac: 0}, // single chain
		differentialPoint{layers: 2, width: 2, cross: 2, revFrac: 1}, // fully reversible
	)
}

// TestDifferentialCrossFamily is the cross-FAMILY oracle: lexicographic
// reverse search shares no code path with the double-description
// drivers past the input reduction, so identical fingerprints across
// the grid rule out whole-family algorithmic bugs that the
// cross-driver harness above cannot see. The dnc scheduler lane runs
// once unbudgeted and once with a 1-byte memory budget (forcing
// compression, spill and memory re-splits), and both must land on the
// reverse-search fingerprint.
func TestDifferentialCrossFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness runs full driver sweeps; skipped with -short")
	}
	families := map[string]bool{}
	for _, f := range strings.Split(*synthBackends, ",") {
		families[strings.TrimSpace(f)] = true
	}
	for f := range families {
		if f != "nullspace" && f != "revsearch" {
			t.Fatalf("-backends: unknown family %q (nullspace | revsearch)", f)
		}
	}
	if !families["nullspace"] || !families["revsearch"] {
		t.Skipf("-backends=%s selects fewer than two families; nothing to cross-check", *synthBackends)
	}
	for gi, pt := range crossFamilyGrid() {
		pt := pt
		seed := *synthSeed + int64(gi)
		name := fmt.Sprintf("l%dw%dx%d_rev%.0f_seed%d", pt.layers, pt.width, pt.cross, pt.revFrac*100, seed)
		t.Run(name, func(t *testing.T) {
			if pt.revFrac >= 0.8 && pt.layers >= 4 && !*heavyGrid {
				t.Skip("degenerate reversible-heavy point; run with -heavygrid (dedicated CI job)")
			}
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
			base, err := elmocomp.ComputeEFMs(net, elmocomp.Config{Backend: elmocomp.ReverseSearchBackend, Workers: 1})
			if err != nil {
				t.Fatalf("revsearch/workers=1: %v", err)
			}
			if base.Len() == 0 {
				t.Fatal("degenerate grid point: no EFMs at all")
			}
			lanes := []variant{
				{name: "revsearch/workers=4", cfg: elmocomp.Config{Backend: elmocomp.ReverseSearchBackend, Workers: 4}},
				{name: "nullspace/serial", cfg: elmocomp.Config{Workers: 1}},
			}
			if qsub := dncQsub(t, n); qsub > 0 {
				lanes = append(lanes,
					variant{name: "nullspace/dnc-sched/groups=2", cfg: elmocomp.Config{
						Algorithm: elmocomp.DivideAndConquer, Workers: 1, GroupConcurrency: 2, Qsub: qsub}},
					variant{name: "nullspace/dnc-sched/groups=2/membudget=1", cfg: elmocomp.Config{
						Algorithm: elmocomp.DivideAndConquer, Workers: 1, GroupConcurrency: 2, Qsub: qsub,
						MemBudgetBytes: 1, SpillDir: t.TempDir()}},
				)
			} else {
				t.Log("dnc lanes skipped (network too small to partition)")
			}
			for _, v := range lanes {
				res, err := elmocomp.ComputeEFMs(net, v.cfg)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if res.Len() != base.Len() || res.Fingerprint() != base.Fingerprint() {
					t.Errorf("%s: %d EFMs fp %016x, revsearch/workers=1 found %d fp %016x",
						v.name, res.Len(), res.Fingerprint(), base.Len(), base.Fingerprint())
				}
			}
		})
	}
}

// TestDifferentialCrossFamilyCancel aborts both families mid-run on one
// mid-size grid point. The pre-closed channel pins the deterministic
// path (cancellation observed at the first poll); the timed channel
// exercises a genuinely mid-enumeration abort, where either a canceled
// error or — if the run won the race — a fingerprint-identical result
// is acceptable.
func TestDifferentialCrossFamilyCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness runs full driver sweeps; skipped with -short")
	}
	pt := differentialGrid[2]
	n, err := Network(Params{
		Layers: pt.layers, Width: pt.width, CrossLinks: pt.cross,
		ReversibleFraction: pt.revFrac, MaxCoef: 2, Seed: *synthSeed + 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := elmocomp.ParseNetworkString(n.String())
	if err != nil {
		t.Fatal(err)
	}
	base, err := elmocomp.ComputeEFMs(net, elmocomp.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []variant{
		{name: "revsearch", cfg: elmocomp.Config{Backend: elmocomp.ReverseSearchBackend, Workers: 2}},
		{name: "dnc-sched", cfg: elmocomp.Config{Algorithm: elmocomp.DivideAndConquer, Workers: 1,
			GroupConcurrency: 2, Qsub: dncQsub(t, n)}},
	}
	for _, v := range cfgs {
		pre := make(chan struct{})
		close(pre)
		if _, err := elmocomp.ComputeEFMsCancel(net, v.cfg, pre); !errors.Is(err, elmocomp.ErrCanceled) {
			t.Errorf("%s pre-closed cancel: err = %v, want ErrCanceled", v.name, err)
		}
		timed := make(chan struct{})
		go func() {
			time.Sleep(500 * time.Microsecond)
			close(timed)
		}()
		res, err := elmocomp.ComputeEFMsCancel(net, v.cfg, timed)
		switch {
		case err == nil:
			if res.Fingerprint() != base.Fingerprint() {
				t.Errorf("%s finished under cancel with wrong fingerprint %016x, want %016x",
					v.name, res.Fingerprint(), base.Fingerprint())
			}
		case !errors.Is(err, elmocomp.ErrCanceled):
			t.Errorf("%s timed cancel: err = %v, want ErrCanceled or success", v.name, err)
		}
	}
}

func TestDifferentialDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness runs full driver sweeps; skipped with -short")
	}
	for gi, pt := range differentialGrid {
		pt := pt
		seed := *synthSeed + int64(gi)
		name := fmt.Sprintf("l%dw%dx%d_rev%.0f_seed%d", pt.layers, pt.width, pt.cross, pt.revFrac*100, seed)
		t.Run(name, func(t *testing.T) {
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

			var wantFP uint64
			var wantLen int
			first := ""
			for _, v := range variants() {
				if v.dnc {
					if qsub == 0 {
						t.Logf("%s: skipped (network too small to partition)", v.name)
						continue
					}
					v.cfg.Qsub = qsub
				}
				res, err := elmocomp.ComputeEFMs(net, v.cfg)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if first == "" {
					first, wantFP, wantLen = v.name, res.Fingerprint(), res.Len()
					if wantLen == 0 {
						t.Fatal("degenerate grid point: no EFMs at all")
					}
					continue
				}
				if res.Len() != wantLen {
					t.Errorf("%s: %d EFMs, %s found %d", v.name, res.Len(), first, wantLen)
				}
				if res.Fingerprint() != wantFP {
					t.Errorf("%s: fingerprint %016x, %s's %016x", v.name, res.Fingerprint(), first, wantFP)
				}
			}
		})
	}
}
