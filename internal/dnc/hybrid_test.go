package dnc

import (
	"testing"

	"elmocomp/internal/reduce"
	"elmocomp/internal/synth"
)

// TestHybridPrefilterMatchesRankOnly: on a network that is pointed as
// written (no reversible reactions), the enumerated EFM union must be
// identical with the subproblem engines' generation tree on and off, and
// equal to the serial reference.
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
	for _, disable := range []bool{true, false} {
		opts := Options{Qsub: 2}
		opts.Parallel.Core.DisableHybrid = disable
		res, err := Run(red.N, red.Reversibilities(), opts)
		if err != nil {
			t.Fatalf("disable=%v: %v", disable, err)
		}
		if got := keysOf(res.Supports); got != want {
			t.Fatalf("disable=%v: EFM union differs from serial\n got %s\nwant %s", disable, got, want)
		}
	}
}
