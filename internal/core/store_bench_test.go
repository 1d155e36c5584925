package core

import (
	"testing"
)

// benchModeStore measures one Hold+Materialize round trip of the
// yeast mid-run surviving set through the store — the exact
// between-rounds custody cycle the engine adds per row under a memory
// budget (none: flat pass-through; one byte: every round spills).
// b.SetBytes reports throughput against the flat footprint, and the
// ratio metric is the realized FlatBytes/SpillBytes.
func benchModeStore(b *testing.B, budget int64) {
	_, set := yeastMidRun(b)
	flatBytes := set.MemoryBytes()
	m := NewStoreManager(Options{MemBudget: budget, SpillDir: b.TempDir()})
	defer m.Release()
	b.SetBytes(flatBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Hold(set); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Materialize(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := m.Stats()
	if st.SpillBytes > 0 {
		b.ReportMetric(float64(st.FlatBytes)/float64(st.SpillBytes), "ratio")
	}
	b.ReportMetric(float64(flatBytes)/float64(set.Len()), "B/mode-flat")
}

func BenchmarkModeStoreFlat(b *testing.B)  { benchModeStore(b, 0) }
func BenchmarkModeStoreSpill(b *testing.B) { benchModeStore(b, 1) }
