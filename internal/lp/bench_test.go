package lp_test

import (
	"testing"

	"elmocomp/internal/lp"
	"elmocomp/internal/model"
)

// widths runs a benchmark body at the default bound and with the bound
// at 0, where the same dictionary lives on big.Int.
func widths(b *testing.B, body func(b *testing.B)) {
	b.Run("narrow", body)
	b.Run("wide", func(b *testing.B) {
		defer lp.SetNarrowBound(0)()
		body(b)
	})
}

// exactRoot returns the phase-1 dictionary of the benchmark's
// yeast1-exact network (26x44) and its first pivotable column with that
// column's lex-min-ratio row.
func exactRoot(b *testing.B) (d *lp.Dict, row, col int) {
	sol, err := lp.Solve(coneProblem(b, yeastExact()), lp.Options{})
	if err != nil || sol.Status != lp.Optimal {
		b.Fatalf("solve: %+v %v", sol, err)
	}
	d = sol.Dict
	for s := 0; s < d.NumVars(); s++ {
		if d.RowOf(s) < 0 {
			if r := d.LexMinRatioRow(s); r >= 0 {
				return d, r, s
			}
		}
	}
	b.Fatal("root dictionary has no pivotable column")
	return nil, 0, 0
}

// BenchmarkDictPivot times one pivot/unpivot pair, the unit of the
// reverse-search descent and of bench's lp.pivot_ns.
func BenchmarkDictPivot(b *testing.B) {
	widths(b, func(b *testing.B) {
		d, row, col := exactRoot(b)
		leaving := d.BasicVar(row)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Pivot(row, col)
			d.Pivot(row, leaving)
		}
	})
}

var sinkRow int

// BenchmarkLexMinRatioRow times the leaving-row rule over every cobasic
// column of the root dictionary, per column.
func BenchmarkLexMinRatioRow(b *testing.B) {
	widths(b, func(b *testing.B) {
		d, _, _ := exactRoot(b)
		var cols []int
		for s := 0; s < d.NumVars(); s++ {
			if d.RowOf(s) < 0 {
				cols = append(cols, s)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkRow = d.LexMinRatioRow(cols[i%len(cols)])
		}
	})
}

// BenchmarkSolveYeast1 times the 209-pivot feasibility solve of the
// full Network I (41x81), which leaves int64 inside phase 1: the wide
// width on the numbers it exists for.
func BenchmarkSolveYeast1(b *testing.B) {
	p := coneProblem(b, model.Builtin("yeast1"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol, err := lp.Solve(p, lp.Options{}); err != nil || !sol.Dict.Wide() {
			b.Fatalf("solve: %+v %v", sol, err)
		}
	}
}
