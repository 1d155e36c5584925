// Command efmcalc computes the elementary flux modes of a metabolic
// network with the serial, combinatorial-parallel, or combined
// divide-and-conquer Nullspace Algorithm.
//
// Usage:
//
//	efmcalc -model toy
//	efmcalc -model yeast1 -algorithm dnc -partition R89r,R74r -nodes 4
//	efmcalc -file net.txt -algorithm parallel -nodes 8 -out efms.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"elmocomp"
	"elmocomp/internal/core"
	"elmocomp/internal/prof"
	"elmocomp/internal/server"
	"elmocomp/internal/stats"
)

func main() {
	var (
		modelName = flag.String("model", "", "built-in network: "+strings.Join(elmocomp.BuiltinNames(), ", "))
		file      = flag.String("file", "", "network file in reaction-equation format")
		backend   = flag.String("backend", "nullspace", "enumeration family: nullspace (double description) | revsearch (lexicographic reverse search) | ondemand (ranked streaming)")
		algorithm = flag.String("algorithm", "serial", "serial | parallel | dnc (nullspace backend only)")
		nodes     = flag.Int("nodes", 1, "simulated compute nodes (parallel, dnc)")
		workers   = flag.Int("workers", 0, "shared-memory workers per engine/node (0 = all cores)")
		qsub      = flag.Int("qsub", 2, "divide-and-conquer partition size")
		groups    = flag.Int("groups", 0, "dnc: local node groups pulling classes off the queue concurrently (0 = one group)")
		partition = flag.String("partition", "", "comma-separated partition reaction names (dnc)")
		tcp       = flag.Bool("tcp", false, "route node traffic over loopback TCP")
		commTO    = flag.Duration("comm-timeout", 0, "abort the run when an inter-node collective stalls longer than this (0 = no deadline)")
		keepDup   = flag.Bool("keep-duplicates", false, "do not merge duplicate reactions during reduction")
		maxModes  = flag.Int("max-modes", 0, "abort/re-split when an intermediate matrix exceeds this many columns")
		kModes    = flag.Int("k", 0, "ondemand: stop after the first k ranked modes (0 = run to exhaustion)")
		objective = flag.String("objective", "", "ondemand: ranking objective as reaction=weight pairs with exact rationals, e.g. \"R1=1,R2=-1/2\"")
		memBudget = flag.String("mem-budget", "", "resident-byte budget per engine, e.g. 64M or 2G; over budget, surviving modes are spilled to disk between rounds (dnc re-splits first)")
		spillDir  = flag.String("spill-dir", "", "directory for mode-store spill files, checked before a -mem-budget run starts (default: the OS temp dir)")
		out       = flag.String("out", "", "write EFM supports to this file (default: count only)")
		writeFlux = flag.Bool("flux", false, "include exact flux values in the output")
		verify    = flag.Bool("verify", false, "re-verify every mode in exact arithmetic")
		jsonOut   = flag.Bool("json", false, "print a machine-readable run summary (the efmd result schema) instead of text")
		verbose   = flag.Bool("v", false, "progress output")
		statsFlag = flag.Bool("stats", false, "print per-iteration/per-subproblem statistics")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}

	net, err := loadNetwork(*modelName, *file)
	if err != nil {
		fatal(err)
	}

	// The flags fill the same options struct the efmd API decodes, so
	// option strings and sizes are checked in one place (Config); only
	// what a remote client must not choose is set on the Config directly.
	opts := server.RunOptions{
		Backend:            *backend,
		Algorithm:          *algorithm,
		Nodes:              *nodes,
		Workers:            *workers,
		Qsub:               *qsub,
		Groups:             *groups,
		KeepDuplicates:     *keepDup,
		MaxModes:           *maxModes,
		K:                  *kModes,
		CommTimeoutSeconds: commTO.Seconds(),
	}
	if *partition != "" {
		opts.Partition = strings.Split(*partition, ",")
	}
	if *memBudget != "" {
		b, err := stats.ParseBytes(*memBudget)
		if err != nil {
			fatal(fmt.Errorf("-mem-budget: %w", err))
		}
		opts.MemBudgetBytes = b
		// Only a budgeted run can spill; it learns now, not at its first
		// over-budget round, that it has nowhere to.
		if err := core.CheckSpillDir(*spillDir); err != nil {
			fatal(err)
		}
	}
	if *objective != "" {
		obj, err := parseObjective(*objective)
		if err != nil {
			fatal(fmt.Errorf("-objective: %w", err))
		}
		opts.Objective = obj
	}
	cfg, err := opts.Config()
	if err != nil {
		fatal(err)
	}
	cfg.OverTCP = *tcp
	cfg.SpillDir = *spillDir
	if cfg.Backend == elmocomp.OnDemandBackend && !*jsonOut {
		// Interactive tier: print each mode the moment it is emitted,
		// long before the run summary.
		cfg.OnMode = func(e elmocomp.ModeEvent) {
			fmt.Printf("mode %d (value %s): %s\n", e.Rank, e.Value, strings.Join(e.Support, " "))
		}
	}
	if *verbose {
		cfg.Progress = func(m string) { fmt.Fprintln(os.Stderr, m) }
	}

	start := time.Now()
	res, err := elmocomp.ComputeEFMs(net, cfg)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	if *jsonOut {
		// The same summary struct the efmd result endpoint serves, so
		// scripts can switch between CLI and service output unchanged,
		// plus the per-row blocks the service leaves out.
		sum := server.Summarize(net, res, elapsed)
		sum.AddRows(res)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("network: %s (%d metabolites x %d reactions)\n",
			net.Name(), net.NumInternalMetabolites(), net.NumReactions())
		fmt.Printf("reduction: %s\n", res.ReductionSummary())
		fmt.Printf("elementary flux modes: %s\n", stats.Count(int64(res.Len())))
		fmt.Printf("candidate modes generated: %s\n", stats.Count(res.CandidateModes))
		if res.PairsVisited > 0 {
			fmt.Printf("candidate pairs visited: %s\n", stats.Count(res.PairsVisited))
		}
		if rs := res.RevSearch; rs != nil {
			fmt.Printf("reverse search: %s bases in %d subtree jobs, %s pivots, max depth %d, %d dictionaries widened to big.Int\n",
				stats.Count(rs.Bases), rs.Jobs, stats.Count(rs.Pivots), rs.MaxDepth, rs.Widened)
		}
		if od := res.OnDemand; od != nil {
			state := "stopped at k"
			if od.Exhausted {
				state = "exhausted"
			}
			fmt.Printf("on-demand stream: %d modes (%s), first after %.3fs, %s bases, %s pivots (%s phase 1), %d dictionaries widened to big.Int\n",
				od.Emitted, state, od.FirstModeSeconds,
				stats.Count(od.Bases), stats.Count(od.Pivots), stats.Count(od.Phase1Pivots), od.Widened)
		}
		fmt.Printf("peak per-node mode matrix: %s\n", stats.Bytes(res.PeakNodeBytes))
		if res.Scheduler != nil {
			fmt.Printf("peak concurrent mode matrices: %s across %d groups\n",
				stats.Bytes(res.PeakConcurrentBytes), res.Scheduler.MaxActive)
		}
		if res.Store.Engaged() {
			fmt.Printf("mode store: %d spills (%s to disk), peak held %s\n",
				res.Store.Spills,
				stats.Bytes(res.Store.SpillBytes), stats.Bytes(res.Store.PeakHeldBytes))
		}
		if s := res.Scheduler; s != nil && s.MemResplits > 0 {
			fmt.Printf("memory re-splits: %d\n", s.MemResplits)
		}
		if res.CommBytes > 0 {
			fmt.Printf("communication: %s payload (%s on the wire) in %s messages\n",
				stats.Bytes(res.CommBytes), stats.Bytes(res.CommWireBytes), stats.Count(res.CommMessages))
		}
		fmt.Printf("elapsed: %v\n", elapsed)
	}

	if *statsFlag && !*jsonOut {
		printStats(res)
	}
	// In -json mode stdout carries only the summary object; side-channel
	// notes go to stderr.
	notes := os.Stdout
	if *jsonOut {
		notes = os.Stderr
	}
	if *verify {
		if err := res.Verify(); err != nil {
			fatal(fmt.Errorf("verification FAILED: %w", err))
		}
		fmt.Fprintln(notes, "verification: all modes exact-checked OK")
	}
	if *out != "" {
		if err := writeOutput(*out, res, *writeFlux); err != nil {
			fatal(err)
		}
		fmt.Fprintf(notes, "wrote %d modes to %s\n", res.Len(), *out)
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

// parseObjective turns "R1=1,R2=-1/2" into the Config.Objective map.
// Weight syntax is validated by the library (exact big.Rat strings).
func parseObjective(s string) (map[string]string, error) {
	obj := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		name, weight, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" || weight == "" {
			return nil, fmt.Errorf("bad pair %q (want reaction=weight)", pair)
		}
		obj[name] = weight
	}
	return obj, nil
}

func loadNetwork(modelName, file string) (*elmocomp.Network, error) {
	switch {
	case modelName != "" && file != "":
		return nil, fmt.Errorf("pass -model or -file, not both")
	case modelName != "":
		return elmocomp.Builtin(modelName)
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return elmocomp.ParseNetwork(f)
	default:
		return nil, fmt.Errorf("pass -model <name> or -file <path>")
	}
}

func printStats(res *elmocomp.Result) {
	if len(res.Iterations) > 0 {
		tb := stats.NewTable("per-iteration statistics",
			"reaction", "rev", "pos", "neg", "zero", "candidates", "visited", "prefiltered", "tested", "elim", "accepted", "dup", "modes out", "gen(s)", "rank(s)")
		for _, it := range res.Iterations {
			tb.AddRow(it.Reaction, it.Reversible, it.Pos, it.Neg, it.Zero,
				stats.Count(it.CandidateModes), stats.Count(it.Visited), stats.Count(it.Prefiltered),
				stats.Count(it.Tested), stats.Count(it.Eliminated),
				stats.Count(it.Accepted),
				stats.Count(it.Duplicates), it.ModesOut, it.GenSeconds, it.RankSeconds)
		}
		tb.Render(os.Stdout)
	}
	if len(res.Subproblems) > 0 {
		tb := stats.NewTable("divide-and-conquer subproblems",
			"class", "EFMs", "candidates", "gen(s)", "rank(s)", "comm(s)", "merge(s)", "note")
		for _, s := range res.Subproblems {
			note := ""
			switch {
			case s.Skipped:
				note = "skipped (infeasible)"
			case s.Unresolved:
				note = "unresolved (over -max-modes at the depth limit)"
			case s.MemReSplit:
				note = "re-split (memory budget)"
			case s.ReSplit:
				note = "re-split"
			}
			tb.AddRow(s.Pattern, stats.Count(int64(s.EFMs)), stats.Count(s.CandidateModes),
				s.Seconds.GenCand, s.Seconds.RankTest,
				s.Seconds.Communicate, s.Seconds.Merge, note)
		}
		tb.Render(os.Stdout)
	}
	if s := res.Scheduler; s != nil {
		fmt.Printf("scheduler: %d enqueued, %d steals, %d re-splits (%d by memory), %d unresolved; peak queue %d, peak active groups %d\n",
			s.Enqueued, s.Steals, s.Resplits, s.MemResplits, s.Unresolved, s.MaxQueueDepth, s.MaxActive)
	}
	printPhases("phases:", res.Phases)
	if len(res.NodePhases) > 1 {
		for r, p := range res.NodePhases {
			printPhases(fmt.Sprintf("node %d:", r), p)
		}
	}
}

func printPhases(label string, p elmocomp.PhaseSeconds) {
	fmt.Printf("%s gen=%s rank=%s comm=%s merge=%s\n", label,
		stats.Seconds(p.GenCand), stats.Seconds(p.RankTest),
		stats.Seconds(p.Communicate), stats.Seconds(p.Merge))
}

func writeOutput(path string, res *elmocomp.Result, withFlux bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if !withFlux {
		return res.WriteSupports(f)
	}
	for i := 0; i < res.Len(); i++ {
		flux, err := res.Flux(i)
		if err != nil {
			return fmt.Errorf("mode %d: %w", i, err)
		}
		names := res.SupportNames(i)
		for j, n := range names {
			if j > 0 {
				fmt.Fprint(f, " ")
			}
			fmt.Fprintf(f, "%s=%s", n, flux[n].RatString())
		}
		fmt.Fprintln(f)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "efmcalc:", err)
	os.Exit(1)
}
