package core

import (
	"testing"

	"elmocomp/internal/linalg"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/reduce"
	"elmocomp/internal/synth"
)

func yeastProblem(b testing.TB) *nullspace.Problem {
	b.Helper()
	red, err := reduce.Network(model.YeastI(), reduce.Options{MergeDuplicates: true})
	if err != nil {
		b.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// pairLoopYeastRow is the row the pair-loop benchmarks run: a real
// mid-run iteration of Network I (the state after 20 iterations).
func pairLoopYeastRow(b *testing.B) (*nullspace.Problem, *ModeSet) {
	p := yeastProblem(b)
	res, err := Run(p, Options{LastRow: p.D + 20})
	if err != nil {
		b.Fatal(err)
	}
	return p, res.Modes
}

// BenchmarkPairLoopYeast measures candidate generation on that row, one
// whole row per iteration: the generation tree's walk, the pre-test on
// the pairs it leaves, and the rank tests on the survivors.
func BenchmarkPairLoopYeast(b *testing.B) {
	p, set := pairLoopYeastRow(b)
	it := BeginRow(p, set, set.FirstRow(), Options{})
	pairs := it.Pairs()
	if pairs == 0 {
		b.Skip("no pairs at this row")
	}
	ws := linalg.NewWorkspace(p.M()+2, p.M()+2)
	sc := &GenScratch{}
	cands := it.NewCandidateSet()
	var st IterStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands = it.ResetCandidateSet(cands)
		st = IterStats{}
		it.GenerateIntoScratch(cands, ws, 0, pairs, &st, sc)
	}
	b.ReportMetric(float64(pairs), "pairs/row")
	b.ReportMetric(float64(st.Visited), "visited/row")
	b.ReportMetric(float64(st.Tested), "rank-tests/row")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
}

// BenchmarkPairTreeBuild times what BeginRow adds on that row to open
// the generation tree: one build over the negative columns.
func BenchmarkPairTreeBuild(b *testing.B) {
	p, set := pairLoopYeastRow(b)
	it := BeginRow(p, set, set.FirstRow(), Options{DisableHybrid: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.buildTrees()
		if it.genTree == nil {
			b.Fatal("row does not open the generation tree")
		}
		it.releaseTrees()
	}
	b.ReportMetric(float64(len(it.Neg)), "neg-columns")
}

func yeastPointedProblem(b *testing.B) *nullspace.Problem {
	b.Helper()
	red, err := reduce.Network(model.YeastI(), reduce.Options{MergeDuplicates: true})
	if err != nil {
		b.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{SplitAllReversible: true})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchHybridRow measures one full mid-run row of the pointed (all
// reversibles split) Network I problem — the state after 19 iterations,
// where the pair space is large enough for elementarity testing to
// dominate — with the hybrid tree prefilter on or off. The On/Off pair
// is the per-row wall-time comparison behind the hybrid fast path.
func benchHybridRow(b *testing.B, disable bool) {
	p := yeastPointedProblem(b)
	res, err := Run(p, Options{LastRow: p.D + 19})
	if err != nil {
		b.Fatal(err)
	}
	set := res.Modes
	it := BeginRow(p, set, set.FirstRow(), Options{DisableHybrid: disable})
	pairs := it.Pairs()
	if pairs == 0 {
		b.Skip("no pairs at this row")
	}
	ws := linalg.NewWorkspace(p.M()+2, p.M()+2)
	sc := &GenScratch{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands := it.NewCandidateSet()
		var st IterStats
		it.GenerateIntoScratch(cands, ws, 0, pairs, &st, sc)
		if i == 0 {
			b.ReportMetric(float64(pairs), "pairs/row")
			b.ReportMetric(float64(st.TreeRejects), "tree-rejects/row")
			b.ReportMetric(float64(st.Tested), "rank-tests/row")
		}
	}
}

func BenchmarkHybridRowYeastOn(b *testing.B)  { benchHybridRow(b, false) }
func BenchmarkHybridRowYeastOff(b *testing.B) { benchHybridRow(b, true) }

// BenchmarkRankTestYeast measures the elementarity test in isolation on
// the candidates of a mid-run Network I row that reach it — every pair
// that survives the support pre-test and the exact support bounds — as
// the stream the engine sees (mostly rejects), and on its accepted and
// rejected parts alone.
func BenchmarkRankTestYeast(b *testing.B) {
	p, set := pairLoopYeastRow(b)
	it := BeginRow(p, set, set.FirstRow(), Options{DisableHybrid: true})
	ws := linalg.NewWorkspace(p.M()+2, p.M()+2)
	stream := it.NewCandidateSet()
	var st IterStats
	g := newGenCall(it, stream, ws, &st, &GenScratch{})
	for _, pi := range it.Pos {
		for _, ni := range it.Neg {
			if it.unionFits(set.BitsWords(pi), pi, ni) {
				g.candidate(pi, ni)
			}
		}
	}
	var accepted, rejected, all []int
	for i := 0; i < stream.Len(); i++ {
		all = append(all, i)
		if ok, _ := nullityIsOne(p, ws, stream.BitsWords(i), linalg.DefaultTol, g.sc.rankIdx); ok {
			accepted = append(accepted, i)
		} else {
			rejected = append(rejected, i)
		}
	}
	for _, bc := range []struct {
		name string
		idx  []int
	}{{"accepted", accepted}, {"rejected", rejected}, {"stream", all}} {
		b.Run(bc.name, func(b *testing.B) {
			if len(bc.idx) == 0 {
				b.Skip("no such candidate at this row")
			}
			eliminated := 0
			for i := 0; i < b.N; i++ {
				if _, e := nullityIsOne(p, ws, stream.BitsWords(bc.idx[i%len(bc.idx)]), linalg.DefaultTol, g.sc.rankIdx); e {
					eliminated++
				}
			}
			b.ReportMetric(float64(len(bc.idx)), "candidates")
			b.ReportMetric(float64(eliminated)/float64(b.N), "eliminations/op")
		})
	}
}

// BenchmarkSerialSynthetic runs the full algorithm on the deterministic
// synthetic workload (end-to-end engine throughput).
func BenchmarkSerialSynthetic(b *testing.B) {
	n, err := synth.Network(synth.Params{
		Layers: 4, Width: 4, CrossLinks: 8,
		ReversibleFraction: 0.25, MaxCoef: 2, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	red, err := reduce.Network(n, reduce.Options{})
	if err != nil {
		b.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(p, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Modes.Len()), "EFMs")
		}
	}
}

// BenchmarkEncodeDecode measures the Communicate&Merge wire codec on a
// mid-run Network I mode set.
func BenchmarkEncodeDecode(b *testing.B) {
	p := yeastProblem(b)
	res, err := Run(p, Options{LastRow: p.D + 18})
	if err != nil {
		b.Fatal(err)
	}
	set := res.Modes
	b.SetBytes(set.MemoryBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := set.Encode()
		if _, err := DecodeModeSet(data); err != nil {
			b.Fatal(err)
		}
	}
}
