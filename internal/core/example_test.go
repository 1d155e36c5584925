package core

import (
	"fmt"
	"os"

	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/reduce"
	"elmocomp/internal/stats"
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

// The paper's motivating problem at laptop scale: S. cerevisiae Network I
// (Figures 3–4) after reduction, and the first 22 of its iterations with
// the growth of the intermediate mode matrix — the memory wall behind the
// divide-and-conquer algorithm (the full network reaches hundreds of
// thousands of columns; Network II overflowed Blue Gene/P node memory two
// iterations before completion).
func ExampleRun_networkI() {
	net := model.YeastI()
	fmt.Printf("network %s: %d internal metabolites, %d reactions\n",
		net.Name, len(net.InternalMetabolites()), len(net.Reactions))
	red, err := reduce.Network(net, reduce.Options{MergeDuplicates: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("reduction: %s (paper: 62x78 -> 35x55 with its pipeline)\n", red.Summary())
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("kernel dimension %d -> %d iterations\n\n", p.D, p.Q()-p.D)

	const rows = 22
	tb := stats.NewTable("intermediate mode matrix growth",
		"iter", "reaction", "rev", "candidates", "accepted", "modes", "memory")
	res, err := Run(p, Options{
		LastRow: p.D + rows,
		Trace: func(it IterStats, set *ModeSet) {
			tb.AddRow(it.Row-p.D+1, red.Cols[p.OrigCol(it.Reaction)].Name, it.Reversible,
				stats.Count(it.Pairs), stats.Count(it.Accepted),
				stats.Count(int64(it.ModesOut)), stats.Bytes(it.PeakBytes))
		},
	})
	if err != nil {
		panic(err)
	}
	tb.Render(os.Stdout)
	fmt.Printf("\ncumulative candidates: %s\n", stats.Count(res.TotalPairs()))
	fmt.Printf("stopped after %d of %d iterations; intermediate matrix holds %s modes\n",
		rows, p.Q()-p.D, stats.Count(int64(res.Modes.Len())))
	// Output:
	// network yeast1: 62 internal metabolites, 78 reactions
	// reduction: yeast1: 62x78 -> 40x64 (3 reactions proven zero-flux) (paper: 62x78 -> 35x55 with its pipeline)
	// kernel dimension 25 -> 40 iterations
	//
	// intermediate mode matrix growth
	// iter  reaction   rev    candidates  accepted  modes  memory
	// -----------------------------------------------------------
	// 1     R12*R79r'  false  1           1         25     16.2 KiB
	// 2     R73        false  1           1         25     15.8 KiB
	// 3     R85        false  1           1         25     15.4 KiB
	// 4     R86        false  1           1         25     15.0 KiB
	// 5     R26*R60    false  1           1         25     14.6 KiB
	// 6     R24*R25r   false  3           3         25     14.3 KiB
	// 7     R59*R70    false  0           0         25     13.9 KiB
	// 8     R23|R77    false  0           0         25     13.5 KiB
	// 9     R46*R47    false  2           2         25     13.1 KiB
	// 10    R75        false  2           2         25     12.7 KiB
	// 11    R93        false  3           3         27     12.8 KiB
	// 12    R72        false  12          10        34     14.5 KiB
	// 13    R21        false  16          9         42     17.5 KiB
	// 14    R37        false  25          25        66     24.0 KiB
	// 15    R33*R65    false  102         102       117    39.1 KiB
	// 16    R15        false  679         289       309    87.4 KiB
	// 17    R41        false  9,450       300       546    169.4 KiB
	// 18    R58        false  517         517       546    209.0 KiB
	// 19    R62        false  0           0         546    200.5 KiB
	// 20    R9         false  36,162      1,657     2,099  458.9 KiB
	// 21    R38        false  913,900     1,874     3,307  903.3 KiB
	// 22    R5         false  454,083     5,371     5,521  1.4 MiB
	//
	// cumulative candidates: 1,414,961
	// stopped after 22 of 40 iterations; intermediate matrix holds 5,521 modes
}
