// Command efmbench regenerates the paper's experimental artifacts:
// the worked toy example (Figures 1–2, section III-A), the network
// inventories (Figures 3–5), and Tables II–IV, plus the scaling claims
// of section IV (candidate-count reduction, memory behaviour). It is not
// the performance benchmark: that is BENCHMARK.json + bench/ (bash
// bench/run.sh), which pins fingerprints and counters and times every
// layer.
//
// Default workloads finish in about a minute on a laptop; pass -full to
// run the complete yeast Network I computations (CPU-minutes to hours —
// see EXPERIMENTS.md for measured results). The paper's absolute
// timings came from a 2008 Xeon cluster and a Blue Gene/P; reproduce the
// *shape* (who wins, how counts decompose), not the wall-clock.
//
// Usage:
//
//	efmbench -exp all
//	efmbench -exp table2 -nodes 1,2,4,8,16
//	efmbench -exp table3 -full
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"elmocomp/internal/prof"
)

type benchConfig struct {
	full        bool
	nodes       []int
	budget      int
	commTimeout time.Duration
	verbose     bool
}

type experiment struct {
	name string
	desc string
	run  func(cfg benchConfig) error
}

var experiments = []experiment{
	{"fig2", "toy-network algorithm trace (Figure 2) and the EFM matrix (eq. 7)", expFig2},
	{"dims", "network dimensions and reductions (Figures 3-5)", expDims},
	{"dncexample", "section III-A: the four divide-and-conquer classes of the toy network", expDncExample},
	{"table2", "Table II: combinatorial parallel algorithm across node counts", expTable2},
	{"table3", "Table III: divide-and-conquer on Network I across {R89r,R74r}", expTable3},
	{"table4", "Table IV: Network II with partition {R54r,R90r,R60r} and adaptive re-split", expTable4},
	{"candreduction", "section IV-A: cumulative candidate modes vs partition size", expCandReduction},
	{"memory", "section IV-B: per-node memory, Algorithm 2 vs Algorithm 3", expMemory},
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run (or 'all'); see -list")
		list    = flag.Bool("list", false, "list experiments")
		full    = flag.Bool("full", false, "run the complete yeast workloads (CPU-minutes to hours)")
		nodes   = flag.String("nodes", "1,2,4,8,16", "node counts for scaling tables")
		budget  = flag.Int("budget", 150000, "intermediate-mode budget for the Table IV simulation")
		commTO  = flag.Duration("comm-timeout", 0, "abort a run when an inter-node collective stalls longer than this (0 = no deadline)")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		verbose = flag.Bool("v", false, "progress to stderr")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-14s %s\n", e.name, e.desc)
		}
		return
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	cfg := benchConfig{full: *full, budget: *budget, commTimeout: *commTO, verbose: *verbose}
	for _, part := range strings.Split(*nodes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fatal(fmt.Errorf("bad -nodes entry %q", part))
		}
		cfg.nodes = append(cfg.nodes, n)
	}

	ran := 0
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.name, e.desc)
		if err := e.run(cfg); err != nil {
			fatal(fmt.Errorf("%s: %w", e.name, err))
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fatal(fmt.Errorf("unknown experiment %q (try -list)", *exp))
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "efmbench:", err)
	os.Exit(1)
}

func progress(cfg benchConfig) func(string) {
	if !cfg.verbose {
		return nil
	}
	return func(m string) { fmt.Fprintln(os.Stderr, "  ", m) }
}
