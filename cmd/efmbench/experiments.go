package main

import (
	"fmt"
	"os"
	"time"

	"elmocomp"
	"elmocomp/internal/core"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/reduce"
	"elmocomp/internal/stats"
	"elmocomp/internal/synth"
)

// mediumWorkload is the laptop-scale stand-in for Network I used by the
// scaling experiments when -full is not given: a deterministic synthetic
// network sized to tens of thousands of EFMs (seconds of CPU).
func mediumWorkload() (*elmocomp.Network, error) {
	n, err := synth.Network(synth.Params{
		Layers: 6, Width: 6, CrossLinks: 14,
		ReversibleFraction: 0.2, MaxCoef: 2, Seed: 42,
	})
	if err != nil {
		return nil, err
	}
	return elmocomp.ParseNetworkString(n.String())
}

// expFig2 traces the Nullspace Algorithm on the toy network, printing
// the intermediate nullspace matrices of Figure 2 and the final EFM
// matrix of equation (7).
func expFig2(cfg benchConfig) error {
	net := model.Toy()
	red, err := reduce.Network(net, reduce.Options{})
	if err != nil {
		return err
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		return err
	}
	fmt.Printf("reduced network: %s (paper eq. (4): 4x8, r9 folded into r3)\n", red.Summary())
	var order []string
	for i := p.D; i < p.Q(); i++ {
		order = append(order, red.Cols[p.OrigCol(p.Perm[i])].Name)
	}
	fmt.Printf("iteration order: %v (paper: r1, r3, r6r, r8r)\n\n", order)

	printSet := func(label string, set *core.ModeSet) {
		fmt.Printf("%s: %d columns\n", label, set.Len())
		for i := 0; i < set.Len(); i++ {
			fmt.Printf("  col %d:", i+1)
			for r := 0; r < p.Q(); r++ {
				name := red.Cols[p.OrigCol(p.Perm[r])].Name
				switch {
				case r >= set.FirstRow():
					fmt.Printf(" %s=%+.2f", name, set.Tail(i)[r-set.FirstRow()])
				case set.Test(i, r):
					v := "+"
					for j, rr := range set.RevRows() {
						if rr == r {
							if set.RevVals(i)[j] < 0 {
								v = "-"
							}
						}
					}
					fmt.Printf(" %s=%s", name, v)
				}
			}
			fmt.Println()
		}
	}
	init := core.InitialModeSet(p, 0)
	printSet("K(1) initial nullspace matrix", init)
	iter := 1
	res, err := core.Run(p, core.Options{Trace: func(it core.IterStats, set *core.ModeSet) {
		iter++
		printSet(fmt.Sprintf("K(%d) after processing %s (%d candidates, %d accepted)",
			iter, red.Cols[p.OrigCol(it.Reaction)].Name, it.Pairs, it.Accepted), set)
	}})
	if err != nil {
		return err
	}
	fmt.Printf("\nfinal EFM count: %d (paper's matrix (7) has 8 columns)\n", res.Modes.Len())
	fmt.Printf("total candidate modes: %d (paper's Fig. 2 pairs: 0+1+1+4 = 6)\n", res.TotalPairs())
	return nil
}

// expDims checks the built-in datasets against the paper's Figures 3-5.
func expDims(cfg benchConfig) error {
	tb := stats.NewTable("network inventories",
		"network", "metabolites", "reactions", "reversible", "reduced (ours)", "reduced (paper)")
	type row struct {
		name  string
		paper string
	}
	for _, r := range []row{
		{"toy", "4x8"},
		{"yeast1", "35x55"},
		{"yeast2", "40x61"},
	} {
		n := model.Builtin(r.name)
		red, err := reduce.Network(n, reduce.Options{MergeDuplicates: true})
		if err != nil {
			return err
		}
		nRev := 0
		for _, rx := range n.Reactions {
			if rx.Reversible {
				nRev++
			}
		}
		tb.AddRow(r.name, len(n.InternalMetabolites()), len(n.Reactions), nRev,
			fmt.Sprintf("%dx%d", red.N.Rows(), red.N.Cols()), r.paper)
	}
	tb.AddNote("our reduction applies only provably EFM-preserving transformations; the paper's")
	tb.AddNote("(unreleased) pipeline compresses further — the enumerated EFM sets are equivalent")
	return tb.Render(os.Stdout)
}

// expDncExample reproduces section III-A: the four divide-and-conquer
// classes of the toy network across (r6r, r8r).
func expDncExample(cfg benchConfig) error {
	net, err := elmocomp.Builtin("toy")
	if err != nil {
		return err
	}
	res, err := elmocomp.ComputeEFMs(net, elmocomp.Config{
		Algorithm: elmocomp.DivideAndConquer,
		Partition: []string{"r6r", "r8r"},
	})
	if err != nil {
		return err
	}
	tb := stats.NewTable("toy network, partition {r6r, r8r}",
		"class", "EFMs (ours)", "EFMs (paper)", "candidates")
	for _, s := range res.Subproblems {
		tb.AddRow(s.Pattern, s.EFMs, 2, stats.Count(s.CandidateModes))
	}
	tb.AddNote("union: %d EFMs; serial algorithm finds 8 (paper eq. (7))", res.Len())
	return tb.Render(os.Stdout)
}

// expTable2 regenerates Table II: the combinatorial parallel algorithm
// across node counts, with the per-phase timing breakdown.
func expTable2(cfg benchConfig) error {
	var net *elmocomp.Network
	var err error
	workload := "synthetic medium workload (use -full for Network I)"
	if cfg.full {
		net, err = elmocomp.Builtin("yeast1")
		workload = "S. cerevisiae Network I"
	} else {
		net, err = mediumWorkload()
	}
	if err != nil {
		return err
	}

	type col struct {
		nodes   int
		res     *elmocomp.Result
		elapsed float64
	}
	var cols []col
	for _, n := range cfg.nodes {
		start := time.Now()
		res, err := elmocomp.ComputeEFMs(net, elmocomp.Config{
			Algorithm:   elmocomp.Parallel,
			Nodes:       n,
			CommTimeout: cfg.commTimeout,
			Progress:    progress(cfg),
		})
		if err != nil {
			return err
		}
		cols = append(cols, col{n, res, time.Since(start).Seconds()})
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "  nodes=%d done in %.1fs\n", n, time.Since(start).Seconds())
		}
	}

	headers := []string{"phase \\ # nodes"}
	for _, c := range cols {
		headers = append(headers, fmt.Sprintf("%d", c.nodes))
	}
	tb := stats.NewTable("Table II — "+workload, headers...)
	addPhase := func(label string, f func(c col) string) {
		row := []interface{}{label}
		for _, c := range cols {
			row = append(row, f(c))
		}
		tb.AddRow(row...)
	}
	addPhase("gen cand (s)", func(c col) string { return stats.Seconds(c.res.Phases.GenCand) })
	addPhase("rank test (s)", func(c col) string { return stats.Seconds(c.res.Phases.RankTest) })
	addPhase("communicate (s)", func(c col) string { return stats.Seconds(c.res.Phases.Communicate) })
	addPhase("merge (s)", func(c col) string { return stats.Seconds(c.res.Phases.Merge) })
	addPhase("total wall (s)", func(c col) string { return stats.Seconds(c.elapsed) })
	addPhase("comm volume", func(c col) string { return stats.Bytes(c.res.CommBytes) })
	addPhase("peak node mem", func(c col) string { return stats.Bytes(c.res.PeakNodeBytes) })
	addPhase("candidates", func(c col) string { return stats.Count(c.res.CandidateModes) })
	addPhase("EFMs", func(c col) string { return stats.Count(int64(c.res.Len())) })

	tb.AddNote("candidate and EFM counts are node-count invariant (the pair space is partitioned)")
	tb.AddNote("this container has a single CPU: nodes are concurrency-simulated, so wall time does")
	tb.AddNote("not drop with node count; phase seconds are summed across nodes (CPU seconds)")
	if cfg.full {
		tb.AddNote("paper (16 cores): total 208.98s, 159,599,700,951 candidates, 1,515,314 EFMs on its 35x55 reduction")
	}
	return tb.Render(os.Stdout)
}

// expTable3 regenerates Table III: divide-and-conquer on Network I with
// the paper's partition {R89r, R74r}.
func expTable3(cfg benchConfig) error {
	var net *elmocomp.Network
	var err error
	var cfgRun elmocomp.Config
	title := ""
	if cfg.full {
		net, err = elmocomp.Builtin("yeast1")
		cfgRun = elmocomp.Config{
			Algorithm:   elmocomp.DivideAndConquer,
			Partition:   []string{"R89r", "R74r"},
			Nodes:       4,
			CommTimeout: cfg.commTimeout,
		}
		title = "Table III — Network I, partition {R89r, R74r}, 4 nodes"
	} else {
		net, err = mediumWorkload()
		cfgRun = elmocomp.Config{
			Algorithm:   elmocomp.DivideAndConquer,
			Qsub:        2,
			Nodes:       4,
			CommTimeout: cfg.commTimeout,
		}
		title = "Table III — synthetic medium workload, auto partition (use -full for Network I)"
	}
	if err != nil {
		return err
	}
	cfgRun.Progress = progress(cfg)
	start := time.Now()
	res, err := elmocomp.ComputeEFMs(net, cfgRun)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	// Serial baseline for the candidate-reduction comparison.
	serial, err := elmocomp.ComputeEFMs(net, elmocomp.Config{Algorithm: elmocomp.Serial})
	if err != nil {
		return err
	}

	tb := stats.NewTable(title,
		"class", "EFMs", "candidates", "gen(s)", "rank(s)", "comm(s)", "merge(s)")
	for _, s := range res.Subproblems {
		tb.AddRow(s.Pattern, stats.Count(int64(s.EFMs)), stats.Count(s.CandidateModes),
			s.Seconds.GenCand, s.Seconds.RankTest,
			s.Seconds.Communicate, s.Seconds.Merge)
	}
	tb.AddNote("total: %s EFMs, %s candidates, %.1fs wall",
		stats.Count(int64(res.Len())), stats.Count(res.CandidateModes), elapsed.Seconds())
	tb.AddNote("unsplit serial run: %s EFMs, %s candidates (D&C/serial candidate ratio %s)",
		stats.Count(int64(serial.Len())), stats.Count(serial.CandidateModes),
		stats.Ratio(float64(res.CandidateModes), float64(serial.CandidateModes)))
	if cfg.full {
		tb.AddNote("paper per-class EFMs: 274,919 / 599,344 / 207,533 / 433,518 (total 1,515,314)")
		tb.AddNote("paper candidates: 81,714,944,316 vs 159,599,700,951 unsplit; total time 141.6s on 16 cores")
	}
	return tb.Render(os.Stdout)
}

// expTable4 simulates Table IV: Network II with the paper's partition
// {R54r, R90r, R60r} and adaptive re-splitting under a mode budget. The
// full computation is testbed-scale (the paper used 256 Blue Gene/P
// nodes for 2h57m and ~2.1e13 candidates); the default budget
// demonstrates the mechanism — classes that exceed the budget are
// re-split by one more reaction, exactly the paper's treatment of
// subsets 1 and 3 (re-split by R22r).
func expTable4(cfg benchConfig) error {
	net, err := elmocomp.Builtin("yeast2")
	if err != nil {
		return err
	}
	budget := cfg.budget
	if cfg.full {
		budget = 0 // unbounded: the real thing (weeks of CPU)
	}
	start := time.Now()
	res, err := elmocomp.ComputeEFMs(net, elmocomp.Config{
		Algorithm:            elmocomp.DivideAndConquer,
		Partition:            []string{"R54r", "R90r", "R60r"},
		MaxIntermediateModes: budget,
		CommTimeout:          cfg.commTimeout,
		Progress:             progress(cfg),
	})
	if err != nil {
		return err
	}
	tb := stats.NewTable(
		fmt.Sprintf("Table IV — Network II, partition {R54r,R90r,R60r}, mode budget %d", budget),
		"class", "EFMs", "candidates", "note")
	for _, s := range res.Subproblems {
		note := ""
		if s.Skipped {
			note = "infeasible (skipped)"
		}
		if s.ReSplit {
			note = "re-split (budget exceeded)"
		}
		if s.Unresolved {
			note = "unresolved at depth limit (needs a deeper split / larger budget)"
		}
		tb.AddRow(s.Pattern, stats.Count(int64(s.EFMs)), stats.Count(s.CandidateModes), note)
	}
	tb.AddNote("measured: %s EFMs within budget, %s candidates, %.1fs wall",
		stats.Count(int64(res.Len())), stats.Count(res.CandidateModes), time.Since(start).Seconds())
	tb.AddNote("paper (256 BG/P nodes, 2h57m): 49,764,544 EFMs, ~2.1e13 candidates; its subsets 1 and 3")
	tb.AddNote("exceeded node memory and were re-split by R22r — the same adaptive mechanism shown here")
	return tb.Render(os.Stdout)
}

// expCandReduction regenerates section IV-A's claim: divide-and-conquer
// usually decreases the cumulative number of intermediate candidates.
func expCandReduction(cfg benchConfig) error {
	var net *elmocomp.Network
	var err error
	if cfg.full {
		net, err = elmocomp.Builtin("yeast1")
	} else {
		net, err = mediumWorkload()
	}
	if err != nil {
		return err
	}
	serial, err := elmocomp.ComputeEFMs(net, elmocomp.Config{})
	if err != nil {
		return err
	}
	tb := stats.NewTable("cumulative candidate modes vs partition size",
		"qsub", "classes", "EFMs", "candidates", "vs serial")
	tb.AddRow(0, 1, stats.Count(int64(serial.Len())), stats.Count(serial.CandidateModes), "1.00x")
	for qsub := 1; qsub <= 3; qsub++ {
		res, err := elmocomp.ComputeEFMs(net, elmocomp.Config{
			Algorithm: elmocomp.DivideAndConquer,
			Qsub:      qsub,
			Progress:  progress(cfg),
		})
		if err != nil {
			return err
		}
		tb.AddRow(qsub, 1<<qsub, stats.Count(int64(res.Len())), stats.Count(res.CandidateModes),
			stats.Ratio(float64(res.CandidateModes), float64(serial.CandidateModes)))
	}
	tb.AddNote("paper (Network I, qsub=2): 81,714,944,316 vs 159,599,700,951 (0.51x)")
	tb.AddNote("the EFM count must be identical in every row (disjoint-union invariant)")
	return tb.Render(os.Stdout)
}

// expMemory regenerates section IV-B: Algorithm 2 replicates the mode
// matrix on every node, so its per-node peak is flat in the node count;
// divide-and-conquer caps the peak by shrinking the largest subproblem.
func expMemory(cfg benchConfig) error {
	var net *elmocomp.Network
	var err error
	if cfg.full {
		net, err = elmocomp.Builtin("yeast1")
	} else {
		net, err = mediumWorkload()
	}
	if err != nil {
		return err
	}
	tb := stats.NewTable("peak per-node mode-matrix memory",
		"configuration", "peak node mem", "EFMs")
	for _, n := range []int{1, 4} {
		res, err := elmocomp.ComputeEFMs(net, elmocomp.Config{
			Algorithm: elmocomp.Parallel, Nodes: n, Progress: progress(cfg),
		})
		if err != nil {
			return err
		}
		tb.AddRow(fmt.Sprintf("Algorithm 2, %d nodes", n),
			stats.Bytes(res.PeakNodeBytes), stats.Count(int64(res.Len())))
	}
	for qsub := 1; qsub <= 3; qsub++ {
		res, err := elmocomp.ComputeEFMs(net, elmocomp.Config{
			Algorithm: elmocomp.DivideAndConquer, Qsub: qsub, Progress: progress(cfg),
		})
		if err != nil {
			return err
		}
		tb.AddRow(fmt.Sprintf("Algorithm 3, qsub=%d", qsub),
			stats.Bytes(res.PeakNodeBytes), stats.Count(int64(res.Len())))
	}
	tb.AddNote("Algorithm 2's replicated matrix does not shrink with more nodes (the paper's")
	tb.AddNote("motivation); the divide-and-conquer peak drops as the largest class shrinks")
	return tb.Render(os.Stdout)
}
