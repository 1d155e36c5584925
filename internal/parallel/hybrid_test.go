package parallel

import (
	"testing"

	"elmocomp/internal/core"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/reduce"
	"elmocomp/internal/synth"
)

// TestHybridPrefilterMatchesRankOnlyAcrossNodes: on a pointed problem
// the distributed driver must produce the serial engine's bit-identical
// mode set for every node/worker combination — however the pair range is
// cut into chunks, the generation tree may only skip probing pairs, never
// change a replica's content.
func TestHybridPrefilterMatchesRankOnlyAcrossNodes(t *testing.T) {
	n, err := synth.Network(synth.Params{
		Layers: 6, Width: 6, CrossLinks: 14, ReversibleFraction: 0.2, MaxCoef: 2, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	red, err := reduce.Network(n, reduce.Options{MergeDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{SplitAllReversible: true})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := core.Run(p, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := serial.Modes.Fingerprint()
	for _, nodes := range []int{1, 2, 3} {
		for _, workers := range []int{1, 4} {
			res, err := Run(p, Options{Nodes: nodes, Core: core.Options{Workers: workers}})
			if err != nil {
				t.Fatalf("nodes=%d workers=%d: %v", nodes, workers, err)
			}
			if got := res.Modes.Fingerprint(); got != want {
				t.Fatalf("nodes=%d workers=%d: fingerprint %016x, want %016x", nodes, workers, got, want)
			}
		}
	}
}
