package parallel

import (
	"fmt"
	"testing"

	"elmocomp/internal/core"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/reduce"
)

// yeastDDProblem is the benchmark's yeast1-dd-R19r input: Network I
// without R32r, R72 and R19r, reduced as every request path reduces it.
func yeastDDProblem(tb testing.TB) *nullspace.Problem {
	tb.Helper()
	net := model.YeastI()
	kept := net.Reactions[:0:0]
	for _, r := range net.Reactions {
		if r.Name != "R32r" && r.Name != "R72" && r.Name != "R19r" {
			kept = append(kept, r)
		}
	}
	net.Reactions = kept
	red, err := reduce.Network(net, reduce.Options{MergeDuplicates: true})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// nodeTested runs a group white-box and returns each node's rank tests,
// read before Run would fold the nodes' statistics into node 0's.
func nodeTested(t *testing.T, p *nullspace.Problem, opts Options) []int64 {
	t.Helper()
	results := make([]*core.Result, opts.Nodes)
	if _, err := runGroup(p, opts, results, make([]float64, opts.Nodes)); err != nil {
		t.Fatal(err)
	}
	tested := make([]int64, opts.Nodes)
	for r, res := range results {
		for _, s := range res.Stats {
			tested[r] += s.Tested
		}
	}
	return tested
}

// TestDealBalancesRankTests: the deal is static, so each node's share of
// yeast1-dd-R19r's 596,450 rank tests is an exact number — pinned here,
// the same on every run and over either transport — and dealing chunks
// round-robin keeps the busiest node within a few percent of the mean,
// where equal contiguous slices of the pair range gave rank 0 of two
// nodes 400,467 (max/mean 1.34; 1.54 at three nodes, 1.83 at four).
// Chunks are equal shares of the pair range wherever they fall in a
// column; the shares moved from 304,564 / 291,886 at two nodes when they
// stopped being cut at column boundaries (max/mean at four nodes went
// from 1.107 to 1.125).
func TestDealBalancesRankTests(t *testing.T) {
	p := yeastDDProblem(t)
	cases := []struct {
		want  []int64
		bound float64
	}{
		{[]int64{304480, 291970}, 1.03},
		{[]int64{215822, 188189, 192439}, 1.10},
		{[]int64{167693, 136817, 148151, 143789}, 1.13},
	}
	if testing.Short() {
		cases = cases[:1] // the race lane runs this twenty times
	}
	for _, c := range cases {
		nodes := len(c.want)
		var sum, most int64
		for _, n := range c.want {
			sum += n
			most = max(most, n)
		}
		if ratio := float64(most) * float64(nodes) / float64(sum); sum != 596450 || ratio > c.bound {
			t.Fatalf("nodes=%d: pinned shares %v sum to %d with max/mean %.3f", nodes, c.want, sum, ratio)
		}
		transports := []Transport{InProc, InProc, TCP}
		if testing.Short() {
			transports = transports[:1]
		}
		for i, tp := range transports {
			got := nodeTested(t, p, Options{Nodes: nodes, Transport: tp, Core: core.Options{Workers: 1}})
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("nodes=%d run %d (transport %d): per-node rank tests %v, want %v", nodes, i, tp, got, c.want)
			}
		}
	}
}
