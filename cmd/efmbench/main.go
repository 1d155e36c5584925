// Command efmbench prints the paper's worked examples: the toy-network
// trace (Figures 1–2), the network inventories (Figures 3–5) and the
// four divide-and-conquer classes of section III-A. The measured tables
// (Tables II–IV, sections IV-A and IV-B) come from the shipped CLI:
// bash scripts/longrun.sh quick|full runs efmcalc -json over them and
// checks the paper's invariants (see EXPERIMENTS.md). Performance is the
// benchmark, BENCHMARK.json + bench/ (bash bench/run.sh).
//
// Usage:
//
//	efmbench -exp all
//	efmbench -exp fig2
//	efmbench -list
package main

import (
	"flag"
	"fmt"
	"os"
)

type experiment struct {
	name string
	desc string
	run  func() error
}

var experiments = []experiment{
	{"fig2", "toy-network algorithm trace (Figure 2) and the EFM matrix (eq. 7)", expFig2},
	{"dims", "network dimensions and reductions (Figures 3-5)", expDims},
	{"dncexample", "section III-A: the four divide-and-conquer classes of the toy network", expDncExample},
}

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment to run (or 'all'); see -list")
		list = flag.Bool("list", false, "list experiments")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-14s %s\n", e.name, e.desc)
		}
		return
	}
	ran := 0
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.name, e.desc)
		if err := e.run(); err != nil {
			fatal(fmt.Errorf("%s: %w", e.name, err))
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fatal(fmt.Errorf("unknown experiment %q (try -list)", *exp))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "efmbench:", err)
	os.Exit(1)
}
