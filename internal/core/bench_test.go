package core

import (
	"slices"
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
func pairLoopYeastRow(tb testing.TB) (*nullspace.Problem, *ModeSet) {
	p := yeastProblem(tb)
	res, err := Run(p, Options{LastRow: p.D + 20})
	if err != nil {
		tb.Fatal(err)
	}
	return p, res.Modes
}

// rankTestStream returns the candidates of the row that reach the rank
// test — every pair that survives the support pre-test and the exact
// support bounds — in generation order, with the liveMask the engine
// hands the rank test with each. Generation appends only the candidates
// the test accepts, so the stream appends each one itself.
func rankTestStream(it *RowIter) (stream *ModeSet, unions [][]uint64) {
	p := it.Problem
	stream = it.NewCandidateSet()
	var st IterStats
	g := newGenCall(it, stream, linalg.NewWorkspace(p.M()+2, p.M()+2), &st, &GenScratch{})
	for _, pi := range it.Pos {
		g.column(pi)
		for kn, ni := range it.Neg {
			if !it.unionFits(g.bp, pi, ni) {
				continue
			}
			if cw := g.support(kn); cw != nil {
				g.valuePass(pi, ni)
				stream.AppendMode(cw, g.newTail, g.newRev, zeroTol)
				unions = append(unions, slices.Clone(g.liveRows(kn)))
			}
		}
	}
	return stream, unions
}

// pairLoopDDRow is the same for the knock-out yeast-serial runs,
// yeast1-dd-R19r: one word of support, after 20 iterations.
func pairLoopDDRow(tb testing.TB) (*nullspace.Problem, *ModeSet) {
	p := yeastDDProblem(tb)
	res, err := Run(p, Options{LastRow: p.D + 20})
	if err != nil {
		tb.Fatal(err)
	}
	return p, res.Modes
}

// BenchmarkPairLoopYeast measures candidate generation on those rows, one
// whole row per iteration: the generation tree's walk, the pre-test on
// the pairs it leaves, the support and rank test of the survivors, and
// the values of the accepted.
func BenchmarkPairLoopYeast(b *testing.B) {
	for _, row := range []struct {
		name string
		load func(testing.TB) (*nullspace.Problem, *ModeSet)
	}{{"yeast1", pairLoopYeastRow}, {"yeast1-dd-R19r", pairLoopDDRow}} {
		b.Run(row.name, func(b *testing.B) {
			p, set := row.load(b)
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
				sc.verdicts.p = nil // every row starts with a cold verdict table, as a run's first does
				it.GenerateIntoScratch(cands, ws, 0, pairs, &st, sc)
			}
			b.ReportMetric(float64(pairs), "pairs/row")
			b.ReportMetric(float64(st.Visited), "visited/row")
			b.ReportMetric(float64(st.Tested), "rank-tests/row")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
		})
	}
}

// BenchmarkPairTreeBuild times what BeginRow adds on that row to open
// the generation tree: one build over the negative columns.
func BenchmarkPairTreeBuild(b *testing.B) {
	p, set := pairLoopYeastRow(b)
	it := BeginRow(p, set, set.FirstRow(), Options{})
	it.release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.buildGenTree()
		it.release()
	}
	b.ReportMetric(float64(len(it.Neg)), "neg-columns")
}

// BenchmarkRankTestYeast measures the elementarity test in isolation on
// the candidates of a mid-run Network I row that reach it, as the stream
// the engine sees (mostly rejects), and on its accepted and rejected
// parts alone; none of these keeps a verdict table. stream-table replays
// the stream through one, cleared at the start of every pass over it, as
// a worker's is at the start of a run.
func BenchmarkRankTestYeast(b *testing.B) {
	p, set := pairLoopYeastRow(b)
	it := BeginRow(p, set, set.FirstRow(), Options{})
	ws := linalg.NewWorkspace(p.M()+2, p.M()+2)
	stream, unions := rankTestStream(it)
	scratch := make([]int, 0, p.Q())
	var accepted, rejected, all []int
	for i := 0; i < stream.Len(); i++ {
		all = append(all, i)
		if ok, _ := nullityIsOne(p, ws, stream.BitsWords(i), unions[i], linalg.DefaultTol, scratch, nil); ok {
			accepted = append(accepted, i)
		} else {
			rejected = append(rejected, i)
		}
	}
	for _, bc := range []struct {
		name  string
		idx   []int
		table bool
	}{{"accepted", accepted, false}, {"rejected", rejected, false}, {"stream", all, false}, {"stream-table", all, true}} {
		b.Run(bc.name, func(b *testing.B) {
			if len(bc.idx) == 0 {
				b.Skip("no such candidate at this row")
			}
			var vt *verdictTable
			if bc.table {
				vt = &verdictTable{}
			}
			eliminated := 0
			for i := 0; i < b.N; i++ {
				k := i % len(bc.idx)
				if vt != nil && k == 0 {
					vt.p = nil
				}
				if _, e := nullityIsOne(p, ws, stream.BitsWords(bc.idx[k]), unions[bc.idx[k]], linalg.DefaultTol, scratch, vt); e {
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
