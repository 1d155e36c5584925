package ratmat_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/ratmat"
	"elmocomp/internal/reduce"
)

// randomSparseRat builds an r×c matrix with about a third of its entries
// non-zero: small fractions, some scaled by the yeast biomass coefficient
// 40141 or by 2⁴⁰ so that entries span several machine words, and now and
// then a row that is a rational combination of two earlier rows so that
// rank deficiency is common.
func randomSparseRat(rng *rand.Rand, r, c int) *ratmat.Matrix {
	m := ratmat.New(r, c)
	big40 := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 40))
	for i := 0; i < r; i++ {
		if i >= 2 && rng.Intn(5) == 0 {
			a, b := rng.Intn(i), rng.Intn(i)
			fa, fb := big.NewRat(int64(rng.Intn(7)-3), int64(rng.Intn(3)+1)), big.NewRat(int64(rng.Intn(5)-2), 1)
			var t1, t2 big.Rat
			for j := 0; j < c; j++ {
				t1.Mul(fa, m.At(a, j))
				t2.Mul(fb, m.At(b, j))
				m.At(i, j).Add(&t1, &t2)
			}
			continue
		}
		for j := 0; j < c; j++ {
			if rng.Intn(3) != 0 {
				continue
			}
			v := m.At(i, j)
			v.SetFrac64(int64(rng.Intn(9)-4), int64(rng.Intn(4)+1))
			switch rng.Intn(8) {
			case 0:
				v.Mul(v, big.NewRat(40141, 1))
			case 1:
				v.Mul(v, big40)
			case 2:
				v.Quo(v, big.NewRat(40141, 1))
			}
		}
	}
	return m
}

// TestRREFMatchesDense: skipping the pivot row's zero entries changes no
// pivot and no entry of RREF, Kernel or IndependentRows. It compares
// against the dense reference on random sparse matrices and on Network
// I's stoichiometry before and after reduction, and on both transposes
// (IndependentRows' elimination).
func TestRREFMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for n := 0; n < 3200; n++ {
		r, c := rng.Intn(9)+1, rng.Intn(11)+1
		ratmat.CheckMatchesDense(t, fmt.Sprintf("random %d (%dx%d)", n, r, c), randomSparseRat(rng, r, c))
	}
	net := model.YeastI()
	N, _ := net.Stoichiometry()
	red, err := reduce.Network(net, reduce.Options{MergeDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    *ratmat.Matrix
	}{
		{"yeast1 N", N},
		{"yeast1 Nᵀ", N.T()},
		{"yeast1 reduced N", red.N},
		{"yeast1 reduced Nᵀ", red.N.T()},
	} {
		ratmat.CheckMatchesDense(t, tc.name, tc.m)
	}
}

// TestWidthsOnBundledNetworks: every matrix reduce.Network and
// nullspace.New eliminate for the bundled networks and the benchmark's
// yeast1 knock-outs stays on machine words — the fallback counter does
// not move — and its machine-word RREF, Rank, Kernel and IndependentRows
// equal the big.Rat ones entry for entry.
func TestWidthsOnBundledNetworks(t *testing.T) {
	knockout := func(n *model.Network, names ...string) *model.Network {
		out := n.Clone()
		out.Reactions = slices.DeleteFunc(out.Reactions, func(r model.Reaction) bool { return slices.Contains(names, r.Name) })
		return out
	}
	for _, tc := range []struct {
		name string
		net  *model.Network
	}{
		{"toy", model.Toy()},
		{"yeast1", model.YeastI()},
		{"yeast2", model.YeastII()},
		{"yeast1-dd-R19r", knockout(model.YeastI(), "R32r", "R72", "R19r")},
		{"yeast1-ko3", knockout(model.YeastI(), "R32r", "R36r", "R19r")},
	} {
		type elim struct {
			m         *ratmat.Matrix
			transpose bool
		}
		var seen []elim
		restore := ratmat.Observe(func(m *ratmat.Matrix, transpose bool) {
			seen = append(seen, elim{m.Clone(), transpose})
		})
		start := ratmat.Fallbacks()
		red, err := reduce.Network(tc.net, reduce.Options{MergeDuplicates: true})
		if err == nil {
			_, err = nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
		}
		restore()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := ratmat.Fallbacks() - start; n != 0 {
			t.Errorf("%s: %d of %d eliminations left machine words", tc.name, n, len(seen))
		}
		for i, e := range seen {
			if !ratmat.CheckWidths(t, fmt.Sprintf("%s elimination %d", tc.name, i), e.m, e.transpose) {
				t.Errorf("%s elimination %d (%dx%d) left machine words", tc.name, i, e.m.Rows(), e.m.Cols())
			}
		}
		t.Logf("%s: %d eliminations", tc.name, len(seen))
	}
}
