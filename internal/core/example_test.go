package core

import (
	"fmt"

	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/reduce"
)

// The paper's Figure 2: the Nullspace Algorithm on the toy network, one
// intermediate nullspace matrix K(1)…K(5) per iteration through the
// Trace hook, ending in the 8 columns of the EFM matrix (7). Each column
// lists its processed rows as signs and its unprocessed rows as values.
func ExampleRun_fig2() {
	red, err := reduce.Network(model.Toy(), reduce.Options{})
	if err != nil {
		panic(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		panic(err)
	}
	name := func(r int) string { return red.Cols[p.OrigCol(p.Perm[r])].Name }
	fmt.Printf("reduced network: %s (paper eq. (4): 4x8, r9 folded into r3)\n", red.Summary())
	fmt.Print("iteration order:")
	for r := p.D; r < p.Q(); r++ {
		fmt.Print(" ", name(r))
	}
	fmt.Println(" (paper: r1, r3, r6r, r8r)")

	printSet := func(label string, set *ModeSet) {
		fmt.Printf("%s: %d columns\n", label, set.Len())
		for i := 0; i < set.Len(); i++ {
			fmt.Printf("  col %d:", i+1)
			for r := 0; r < p.Q(); r++ {
				switch {
				case r >= set.FirstRow():
					fmt.Printf(" %s=%+.2f", name(r), set.Tail(i)[r-set.FirstRow()])
				case set.Test(i, r):
					sign := "+"
					for j, rr := range set.RevRows() {
						if rr == r && set.RevVals(i)[j] < 0 {
							sign = "-"
						}
					}
					fmt.Printf(" %s=%s", name(r), sign)
				}
			}
			fmt.Println()
		}
	}
	printSet("K(1) initial nullspace matrix", InitialModeSet(p, 0))
	iter := 1
	res, err := Run(p, Options{Trace: func(it IterStats, set *ModeSet) {
		iter++
		printSet(fmt.Sprintf("K(%d) after processing %s (%d candidates, %d accepted)",
			iter, red.Cols[p.OrigCol(it.Reaction)].Name, it.Pairs, it.Accepted), set)
	}})
	if err != nil {
		panic(err)
	}
	fmt.Printf("final EFM count: %d (paper's matrix (7) has 8 columns)\n", res.Modes.Len())
	fmt.Printf("total candidate modes: %d (paper's Fig. 2 pairs: 0+1+1+4 = 6)\n", res.TotalPairs())
	// Output:
	// reduced network: toy: 5x9 -> 4x8 (0 reactions proven zero-flux) (paper eq. (4): 4x8, r9 folded into r3)
	// iteration order: r1 r3*r9 r6r r8r (paper: r1, r3, r6r, r8r)
	// K(1) initial nullspace matrix: 4 columns
	//   col 1: r2=+ r1=+1.00 r3*r9=+0.00 r6r=-0.50 r8r=+1.00
	//   col 2: r4=+ r1=+0.00 r3*r9=+0.50 r6r=+0.50 r8r=-1.00
	//   col 3: r5=+ r1=+1.00 r3*r9=+0.00 r6r=+0.00 r8r=+1.00
	//   col 4: r7=+ r1=+0.00 r3*r9=-1.00 r6r=-1.00 r8r=+1.00
	// K(2) after processing r1 (0 candidates, 0 accepted): 4 columns
	//   col 1: r4=+ r3*r9=+0.50 r6r=+0.50 r8r=-1.00
	//   col 2: r7=+ r3*r9=-1.00 r6r=-1.00 r8r=+1.00
	//   col 3: r2=+ r1=+ r3*r9=+0.00 r6r=-0.50 r8r=+1.00
	//   col 4: r5=+ r1=+ r3*r9=+0.00 r6r=+0.00 r8r=+1.00
	// K(3) after processing r3*r9 (1 candidates, 1 accepted): 4 columns
	//   col 1: r2=+ r1=+ r6r=-0.50 r8r=+1.00
	//   col 2: r5=+ r1=+ r6r=+0.00 r8r=+1.00
	//   col 3: r4=+ r3*r9=+ r6r=+0.50 r8r=-1.00
	//   col 4: r4=+ r7=+ r6r=+0.00 r8r=-1.00
	// K(4) after processing r6r (1 candidates, 1 accepted): 5 columns
	//   col 1: r5=+ r1=+ r8r=+1.00
	//   col 2: r4=+ r7=+ r8r=-1.00
	//   col 3: r4=+ r3*r9=+ r6r=+ r8r=-1.00
	//   col 4: r2=+ r1=+ r6r=- r8r=+1.00
	//   col 5: r2=+ r4=+ r1=+ r3*r9=+ r8r=+0.00
	// K(5) after processing r8r (4 candidates, 4 accepted): 8 columns
	//   col 1: r2=+ r4=+ r1=+ r3*r9=+
	//   col 2: r5=+ r1=+ r8r=+
	//   col 3: r2=+ r1=+ r6r=- r8r=+
	//   col 4: r4=+ r7=+ r8r=-
	//   col 5: r4=+ r3*r9=+ r6r=+ r8r=-
	//   col 6: r4=+ r5=+ r7=+ r1=+
	//   col 7: r2=+ r4=+ r7=+ r1=+ r6r=-
	//   col 8: r4=+ r5=+ r1=+ r3*r9=+ r6r=+
	// final EFM count: 8 (paper's matrix (7) has 8 columns)
	// total candidate modes: 6 (paper's Fig. 2 pairs: 0+1+1+4 = 6)
}
