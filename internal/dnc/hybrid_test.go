package dnc

import (
	"testing"

	"elmocomp/internal/reduce"
	"elmocomp/internal/synth"
)

// TestHybridPrefilterMatchesRankOnly: on a network that is pointed as
// written (no reversible reactions), the EFM union the subproblem engines
// enumerate through their generation trees must equal the serial
// reference.
func TestHybridPrefilterMatchesRankOnly(t *testing.T) {
	n, err := synth.Network(synth.Params{
		Layers: 4, Width: 4, CrossLinks: 8, ReversibleFraction: 0, MaxCoef: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	red, err := reduce.Network(n, reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := keysOf(serialSupports(t, red.N, red.Reversibilities()))
	res, err := Run(red.N, red.Reversibilities(), Options{Qsub: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(res.Supports); got != want {
		t.Fatalf("EFM union differs from serial\n got %s\nwant %s", got, want)
	}
}
