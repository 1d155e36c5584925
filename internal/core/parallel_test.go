package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"elmocomp/internal/linalg"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/reduce"
	"elmocomp/internal/synth"
)

// fixtureProblems builds the determinism fixtures: the paper's toy
// network plus a few deterministic synthetic networks of varying shape.
func fixtureProblems(t *testing.T) map[string]*nullspace.Problem {
	t.Helper()
	nets := map[string]*model.Network{"toy": model.Toy()}
	for _, ps := range []synth.Params{
		{Layers: 3, Width: 3, CrossLinks: 3, ReversibleFraction: 0.3, MaxCoef: 2, Seed: 1},
		{Layers: 4, Width: 3, CrossLinks: 5, ReversibleFraction: 0.2, MaxCoef: 2, Seed: 7},
		{Layers: 3, Width: 4, CrossLinks: 6, ReversibleFraction: 0.4, MaxCoef: 2, Seed: 11},
	} {
		n, err := synth.Network(ps)
		if err != nil {
			t.Fatal(err)
		}
		nets[n.Name] = n
	}
	out := make(map[string]*nullspace.Problem)
	for name, n := range nets {
		red, err := reduce.Network(n, reduce.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = p
	}
	return out
}

// requireIdenticalSets asserts two mode sets are bit-identical: same
// count, same supports in the same order, and exactly equal values.
func requireIdenticalSets(t *testing.T, label string, want, got *ModeSet) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d modes, want %d", label, got.Len(), want.Len())
	}
	if got.FirstRow() != want.FirstRow() {
		t.Fatalf("%s: FirstRow %d, want %d", label, got.FirstRow(), want.FirstRow())
	}
	for i := 0; i < want.Len(); i++ {
		if !equalWords(want.BitsWords(i), got.BitsWords(i)) {
			t.Fatalf("%s: mode %d support differs", label, i)
		}
		wt, gt := want.Tail(i), got.Tail(i)
		for j := range wt {
			if wt[j] != gt[j] {
				t.Fatalf("%s: mode %d tail[%d] = %v, want %v", label, i, j, gt[j], wt[j])
			}
		}
		wr, gr := want.RevVals(i), got.RevVals(i)
		for j := range wr {
			if wr[j] != gr[j] {
				t.Fatalf("%s: mode %d rev[%d] = %v, want %v", label, i, j, gr[j], wr[j])
			}
		}
	}
}

// TestWorkersDeterminism: every worker count must produce a mode set
// bit-identical to the single-threaded engine — same modes, same
// canonical order, same float values — on all fixture networks. Run in
// CI under -race to also exercise the pool's synchronization.
func TestWorkersDeterminism(t *testing.T) {
	for name, p := range fixtureProblems(t) {
		serial, err := Run(p, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		for _, workers := range []int{2, 3, 4, 5, 8} {
			res, err := Run(p, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			requireIdenticalSets(t, name, serial.Modes, res.Modes)
			// Counter aggregation must be exact, not approximate.
			for i, s := range res.Stats {
				ref := serial.Stats[i]
				if s.Pairs != ref.Pairs || s.Prefiltered != ref.Prefiltered ||
					s.Tested != ref.Tested || s.Eliminated != ref.Eliminated || s.Accepted != ref.Accepted ||
					s.Duplicates != ref.Duplicates || s.ModesOut != ref.ModesOut {
					t.Fatalf("%s workers=%d row %d: counters diverge:\n got %+v\nwant %+v",
						name, workers, i, s, ref)
				}
			}
		}
	}
}

// concatSets copies sets, in order, into one candidate set of the row.
func concatSets(it *RowIter, sets []*ModeSet) *ModeSet {
	out := it.NewCandidateSet()
	for _, s := range sets {
		for i := 0; i < s.Len(); i++ {
			out.CopyModeFrom(s, i)
		}
	}
	return out
}

// genCounters is every counter generation keeps, for exact comparison.
func genCounters(s IterStats) [7]int64 {
	return [7]int64{s.Pairs, s.Visited, s.Prefiltered, s.TreeRejects, s.Tested, s.Eliminated, s.Accepted}
}

// TestGenerateRangeMatchesGenerateInto: the pool's ordered chunks must
// reproduce the single-call candidate sequence and every generation
// counter exactly, at every worker count and over ranges that begin and
// end in the middle of a positive column — and the single call, which
// asks the generation tree wherever a row carries one, must in turn
// reproduce the plain linear sweep in everything but Visited (and the
// reject tree's share of the rank tests). The toy
// network never opens the tree; the Network I prefix (the rows
// BenchmarkPairLoopYeast runs up to) does, and the pointed synthetic
// network adds the reject tree's counter.
func TestGenerateRangeMatchesGenerateInto(t *testing.T) {
	type fixture struct {
		p    *nullspace.Problem
		last int // rows D..last-1 are checked
	}
	problems := fixtureProblems(t)
	yeast := yeastProblem(t)
	fixtures := map[string]fixture{
		"toy":          {problems["toy"], problems["toy"].Q()},
		"synth-s7":     {problems["synth-l4w3x5-s7"], problems["synth-l4w3x5-s7"].Q()},
		"yeast prefix": {yeast, yeast.D + 20},
	}
	if !testing.Short() {
		n, err := synth.Network(synth.Params{Layers: 6, Width: 6, CrossLinks: 14, ReversibleFraction: 0.2, MaxCoef: 2, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		red, err := reduce.Network(n, reduce.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pointed, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{SplitAllReversible: true})
		if err != nil {
			t.Fatal(err)
		}
		fixtures["synth-s42 pointed"] = fixture{pointed, pointed.Q()}
		fixtures["yeast prefix"] = fixture{yeast, yeast.D + 21}
	}
	rng := rand.New(rand.NewSource(26))
	for name, f := range fixtures {
		p := f.p
		if p == nil {
			t.Fatalf("%s: fixture missing", name)
		}
		set := InitialModeSet(p, zeroTol)
		ws := linalg.NewWorkspace(p.M()+2, p.M()+2)
		pools := map[int]*Pool{}
		for _, workers := range []int{1, 2, 3, 5} {
			pools[workers] = NewPool(p, workers)
		}
		opened := false
		for row := p.D; row < f.last; row++ {
			it := BeginRow(p, set, row, Options{})
			linear := BeginRow(p, set, row, Options{DisableHybrid: true})
			opened = opened || it.genTree != nil
			pairs := it.Pairs()
			ranges := [][2]int64{{0, pairs}}
			for i := 0; i < 2 && pairs > 1; i++ {
				from := rng.Int63n(pairs)
				ranges = append(ranges, [2]int64{from, from + 1 + rng.Int63n(pairs-from)})
			}
			var whole *ModeSet
			for ri, r := range ranges {
				label := fmt.Sprintf("%s row %d pairs [%d,%d)", name, row, r[0], r[1])
				want := linear.NewCandidateSet()
				var wantStats IterStats
				linear.GenerateIntoScratch(want, ws, r[0], r[1], &wantStats, nil)
				if wantStats.Visited != r[1]-r[0] {
					t.Fatalf("%s: linear sweep visited %d pairs", label, wantStats.Visited)
				}
				single := it.NewCandidateSet()
				var singleStats IterStats
				it.GenerateIntoScratch(single, ws, r[0], r[1], &singleStats, nil)
				requireIdenticalSets(t, label+" single call", want, single)
				// The switched-off reference has neither tree: it visits
				// every pair and rank-tests what the reject tree takes,
				// some of it by elimination.
				wantStats.Visited = singleStats.Visited
				wantStats.Tested -= singleStats.TreeRejects
				if singleStats.TreeRejects > 0 && wantStats.Eliminated >= singleStats.Eliminated {
					wantStats.Eliminated = singleStats.Eliminated
				}
				wantStats.TreeRejects = singleStats.TreeRejects
				if singleStats.Visited > singleStats.Pairs || genCounters(singleStats) != genCounters(wantStats) {
					t.Fatalf("%s: single-call counters %v, linear sweep %v", label, genCounters(singleStats), genCounters(wantStats))
				}
				if ri == 0 {
					whole = single
				}
				for workers, pool := range pools {
					// The full range runs at every worker count, the
					// random ranges at one each.
					if ri > 0 && workers != []int{1, 2, 3, 5}[(row+ri)%4] {
						continue
					}
					var shardStats IterStats
					sets := pool.GenerateRange(it, r[0], r[1], &shardStats)
					requireIdenticalSets(t, fmt.Sprintf("%s workers=%d", label, workers), want, concatSets(it, sets))
					if genCounters(shardStats) != genCounters(singleStats) {
						t.Fatalf("%s workers=%d: chunked counters %v, single call %v", label, workers, genCounters(shardStats), genCounters(singleStats))
					}
				}
			}
			next, err := it.AssembleNext(whole)
			if err != nil {
				t.Fatal(err)
			}
			set = next
		}
		if name == "yeast prefix" && !opened {
			t.Fatalf("%s: no row opened the generation tree", name)
		}
	}
}

// TestDealMatchesGenerateRange: dealt across a group, the row's chunks
// must come back from every node's Gather in the serial generation order
// — the candidate sequence a group of one generates — with the nodes'
// generation counters summing to the group of one's, Visited included
// (the deal's chunks are column-aligned wherever a tree answers), at
// every node and worker count and whichever worker pulled which chunk.
// The yeast1-dd-R19r prefix runs past D+22, the first row whose tree
// columns a contiguous node slice used to split (-short stops right
// after it: the race lane runs this twenty times).
func TestDealMatchesGenerateRange(t *testing.T) {
	yeast := yeastDDProblem(t)
	last := yeast.D + 25
	if testing.Short() {
		last = yeast.D + 23
	}
	for _, f := range []struct {
		p    *nullspace.Problem
		last int
	}{{fixtureProblems(t)["toy"], 0}, {yeast, last}} {
		p, last := f.p, f.last
		if last == 0 {
			last = p.Q()
		}
		set := InitialModeSet(p, zeroTol)
		alone := NewPool(p, 1)
		for row := p.D; row < last; row++ {
			it := BeginRow(p, set, row, Options{})
			var wantStats IterStats
			want := concatSets(it, alone.GenerateRange(it, 0, it.Pairs(), &wantStats))
			for _, size := range []int{2, 3, 4} {
				for _, workers := range []int{1, 2, 3} {
					label := fmt.Sprintf("row %d nodes=%d workers=%d", row, size, workers)
					deals := make([]*Deal, size)
					payloads := make([][]byte, size)
					var st IterStats
					for r := range deals {
						deals[r] = NewPool(p, workers).Deal(it, r, size, &st)
						payloads[r] = deals[r].Encode()
					}
					if genCounters(st) != genCounters(wantStats) {
						t.Fatalf("%s: dealt counters %v, group of one %v", label, genCounters(st), genCounters(wantStats))
					}
					for r, d := range deals {
						sets, err := d.Gather(payloads)
						if err != nil {
							t.Fatalf("%s rank %d: %v", label, r, err)
						}
						requireIdenticalSets(t, fmt.Sprintf("%s rank %d", label, r), want, concatSets(it, sets))
					}
				}
			}
			next, err := it.AssembleNext(want)
			if err != nil {
				t.Fatal(err)
			}
			set = next
		}
	}
}

// TestPoolAssembleMatchesSerialAssemble: the parallel sorted k-way merge
// must agree bit-for-bit with the serial sort-based AssembleNext — on the
// toy network, whose rows yield fewer sets than workers, and on the
// Network I prefix, whose rows yield one set per chunk and make every
// worker sort a group of them.
func TestPoolAssembleMatchesSerialAssemble(t *testing.T) {
	yeast := yeastProblem(t)
	for _, f := range []struct {
		p    *nullspace.Problem
		last int
	}{{fixtureProblems(t)["toy"], 0}, {yeast, yeast.D + 20}} {
		p, last := f.p, f.last
		if last == 0 {
			last = p.Q()
		}
		opts := Options{}
		set := InitialModeSet(p, zeroTol)
		pool := NewPool(p, 4)
		mostSets := 0
		for row := p.D; row < last; row++ {
			itSerial := BeginRow(p, set, row, opts)
			itPool := BeginRow(p, set, row, opts)
			var st IterStats
			sets := pool.GenerateRange(itPool, 0, itPool.Pairs(), &st)
			mostSets = max(mostSets, len(sets))

			// Serial reference over the identical sets.
			want, err := itSerial.AssembleNext(sets...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pool.AssembleNext(itPool, sets)
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalSets(t, "assemble", want, got)
			if itSerial.Stats.Duplicates != itPool.Stats.Duplicates {
				t.Fatalf("row %d: duplicates %d, want %d", row, itPool.Stats.Duplicates, itSerial.Stats.Duplicates)
			}
			set = got
		}
		if p == yeast && mostSets <= pool.Workers() {
			t.Fatalf("no row returned more sets (%d) than the pool has workers", mostSets)
		}
	}
}

// TestExtrapolateSampled pins down the sampled test-timer arithmetic:
// scaling by timed/sampled, clamping into [0, wall], and the no-sample
// passthrough.
func TestExtrapolateSampled(t *testing.T) {
	cases := []struct {
		wall, sampledSec  float64
		sampled, total    int64
		wantTest, wantGen float64
	}{
		// 1-in-64 sampling: 0.01s over 2 of 128 tests → 0.64s of 1s wall.
		{1.0, 0.01, 2, 128, 0.64, 0.36},
		// No rank tests sampled (tree path measures fully): passthrough.
		{1.0, 0.25, 0, 0, 0.25, 0.75},
		// Extrapolation exceeding the wall clamps to it.
		{0.5, 0.02, 1, 64, 0.5, 0.0},
		// Nothing tested at all.
		{0.3, 0, 0, 0, 0, 0.3},
	}
	for i, c := range cases {
		gotTest, gotGen := extrapolateSampled(c.wall, scaleSampled(c.sampledSec, c.sampled, c.total))
		if math.Abs(gotTest-c.wantTest) > 1e-12 || math.Abs(gotGen-c.wantGen) > 1e-12 {
			t.Fatalf("case %d: got (%v, %v), want (%v, %v)", i, gotTest, gotGen, c.wantTest, c.wantGen)
		}
		if gotTest < 0 || gotGen < 0 {
			t.Fatalf("case %d: negative split (%v, %v)", i, gotTest, gotGen)
		}
	}
}

// TestSampledTimerSharded audits the satellite's concern: sharding the
// pair space across per-worker IterStats must keep the extrapolated
// TestSeconds well-formed — each worker extrapolates from its own
// sampled/timed counters and the combination sums, never re-scales.
func TestSampledTimerSharded(t *testing.T) {
	p := fixtureProblems(t)["toy"]
	opts := Options{}
	serial, err := Run(p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var serialTested, shardTested int64
	for i := range res.Stats {
		serialTested += serial.Stats[i].Tested
		shardTested += res.Stats[i].Tested
		s := res.Stats[i]
		if s.TestSeconds < 0 || s.GenSeconds < 0 {
			t.Fatalf("row %d: negative phase seconds %+v", i, s)
		}
	}
	if shardTested != serialTested {
		t.Fatalf("sharded Tested %d != serial %d", shardTested, serialTested)
	}
	_ = opts
}

// TestModeSetResetReuse: Reset must produce a set indistinguishable from
// a fresh NewModeSet while retaining storage capacity.
func TestModeSetResetReuse(t *testing.T) {
	s := NewModeSet(130, 3, []int{1})
	tail := make([]float64, s.TailLen())
	rev := []float64{0.5}
	for i := range tail {
		tail[i] = float64(i%5) - 2
	}
	for i := 0; i < 20; i++ {
		s.AppendMode(nil, tail, rev, 1e-9)
	}
	bitsCap, valsCap := cap(s.bits), cap(s.vals)
	s.Reset(130, 4, []int{1, 3})
	if s.Len() != 0 || s.FirstRow() != 4 || len(s.RevRows()) != 2 {
		t.Fatalf("reset layout wrong: len=%d firstRow=%d revRows=%v", s.Len(), s.FirstRow(), s.RevRows())
	}
	if cap(s.bits) != bitsCap || cap(s.vals) != valsCap {
		t.Fatalf("reset dropped storage: bits %d->%d, vals %d->%d", bitsCap, cap(s.bits), valsCap, cap(s.vals))
	}
	// Stale bits must not leak into re-appended modes (nil prefix path).
	tail2 := make([]float64, s.TailLen())
	idx := s.AppendMode(nil, tail2, []float64{0, 0}, 1e-9)
	for w, word := range s.BitsWords(idx) {
		if word != 0 {
			t.Fatalf("stale bits after reset: word %d = %x", w, word)
		}
	}
}

// TestGenerateScratchReuseAllocs: with a warmed scratch, candidate set
// and workspace, regenerating a row must not allocate on the hot path.
func TestGenerateScratchReuseAllocs(t *testing.T) {
	p := fixtureProblems(t)["toy"]
	opts := Options{}
	res, err := Run(p, Options{Workers: 1, LastRow: p.D + 2})
	if err != nil {
		t.Fatal(err)
	}
	set := res.Modes
	it := BeginRow(p, set, set.FirstRow(), opts)
	if it.Pairs() == 0 {
		t.Skip("no pairs at this row")
	}
	ws := linalg.NewWorkspace(p.M()+2, p.M()+2)
	var sc GenScratch
	cands := it.NewCandidateSet()
	var st IterStats
	// Warm-up grows cands to its steady-state capacity.
	it.GenerateIntoScratch(cands, ws, 0, it.Pairs(), &st, &sc)
	allocs := testing.AllocsPerRun(10, func() {
		cands = it.ResetCandidateSet(cands)
		var st IterStats
		it.GenerateIntoScratch(cands, ws, 0, it.Pairs(), &st, &sc)
	})
	if allocs > 2 {
		t.Fatalf("hot generation path allocates %.1f objects per row, want ≤2", allocs)
	}
}

// TestPoolWorkersDefault: Workers <= 0 resolves to GOMAXPROCS.
func TestPoolWorkersDefault(t *testing.T) {
	p := fixtureProblems(t)["toy"]
	if got := NewPool(p, 0).Workers(); got < 1 {
		t.Fatalf("default pool has %d workers", got)
	}
	if got := NewPool(p, 5).Workers(); got != 5 {
		t.Fatalf("explicit pool has %d workers, want 5", got)
	}
}
