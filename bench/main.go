// Command bench is the repository's one benchmark: six workloads that
// between them put every layer of the system on a critical path, a set
// of end-to-end metrics measured with tracing off, and per-layer
// metrics from a separate traced pass. It measures strictly from
// outside — through elmocomp.ComputeEFMs, the efmd HTTP handlers and
// the exported functions of the internal packages — and checks every
// result against expected.json.
//
// It is a module of its own (elmocomp/bench, replacing elmocomp by the
// parent directory), built and run from the repository root by run.sh:
//
//	bash bench/run.sh                       all workloads, 5 interleaved repetitions
//	bash bench/run.sh -trace 1              ... plus the traced pass and bench/out/trace.json
//	bash bench/run.sh -workload yeast-serial -reps 3 -seed 2
//	bash bench/run.sh -compare a.json b.json
//
// The driver of BENCHMARK.json runs it with
// --workload W --seed N --seconds S --trace 0|1; the last line of
// standard output is then the driver's result object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// childEnv marks a process as a repetition child. The binary ignores
// it; bench_test.go's TestMain uses it to turn the test binary into the
// bench when it re-executes itself.
const childEnv = "ELMOBENCH_CHILD"

type options struct {
	workload  string
	seed      int64
	seconds   float64
	reps      int
	trace     int
	smoke     bool
	compare   bool
	out       string
	benchmark string
	child     bool
	traceFile string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all six)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: picks the network variants and orders the scan script")
	fs.Float64Var(&o.seconds, "seconds", 0, "repeat each workload while another repetition fits into this many seconds (0: use -reps)")
	fs.IntVar(&o.reps, "reps", 5, "timed repetitions per workload, interleaved round-robin across workloads")
	fs.IntVar(&o.trace, "trace", 0, "1: add the traced pass and report the per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "toy network and a five-request script (what bench_test.go runs)")
	fs.BoolVar(&o.compare, "compare", false, "compare two report files: bench -compare a.json b.json")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for report.json and trace.json")
	fs.StringVar(&o.benchmark, "benchmark", "BENCHMARK.json", "bounds file read by -compare")
	fs.BoolVar(&o.child, "child", false, "internal: run one repetition and print its result")
	fs.StringVar(&o.traceFile, "tracefile", "", "internal: where a traced child writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.compare:
		var breached bool
		breached, err = compareFiles(stdout, o.benchmark, fs.Args())
		if err == nil && breached {
			return 1
		}
	case o.child:
		err = runChild(o, stdout)
	default:
		var failed bool
		failed, err = runParent(o, stdout, stderr)
		if err == nil && failed {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runChild is one repetition in a process of its own, so that peak
// RSS, caches and garbage-collector state belong to that repetition.
func runChild(o options, stdout io.Writer) error {
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	p, err := newProfile(o.seed, o.smoke)
	if err != nil {
		return err
	}
	exp, err := loadExpectations()
	if err != nil {
		return err
	}
	c := &child{p: p, seed: o.seed, exp: exp}
	if o.trace == 1 {
		c.tr = newTracer(fmt.Sprintf("%s/seed%d", w.Name, o.seed))
		err = w.traced(c)
	} else {
		err = w.run(c)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	if c.tr != nil && o.traceFile != "" {
		if err := c.tr.write(o.traceFile); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(c.res)
}

// repetition is a child's result plus what only the parent can see.
type repetition struct {
	childResult
	PeakRSSMB float64
	// Speed is the machine-speed factor beside this repetition (see
	// probe.go): above 1 the machine was slower than the quiet
	// reference box.
	Speed float64
}

func spawn(o options, w workload, trace int, traceFile string, speed *speedometer, stderr io.Writer) (*repetition, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	before := speed.recent()
	args := []string{"-child", "-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10), "-trace", strconv.Itoa(trace)}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if traceFile != "" {
		args = append(args, "-tracefile", traceFile)
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", w.Name, err)
	}
	rep := &repetition{PeakRSSMB: peakRSSMB(cmd.ProcessState)}
	rep.Speed = (before + speed.read()) / 2 / probeNominal
	if err := json.Unmarshal(out, &rep.childResult); err != nil {
		return nil, fmt.Errorf("%s child output: %w", w.Name, err)
	}
	return rep, nil
}

// runParent runs the repetitions, aggregates them into a report, prints
// every metric by name and writes report.json. It reports whether any
// operation failed.
func runParent(o options, stdout, stderr io.Writer) (failed bool, err error) {
	selected := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	if o.trace != 0 && o.trace != 1 {
		return false, errors.New("-trace is 0 or 1")
	}
	p, err := newProfile(o.seed, o.smoke)
	if err != nil {
		return false, err
	}
	exp, err := loadExpectations()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return false, err
	}

	speed := &speedometer{off: o.smoke}
	reps := make(map[string][]*repetition)
	one := func(w workload) error {
		rep, err := spawn(o, w, 0, "", speed, stderr)
		if err == nil {
			reps[w.Name] = append(reps[w.Name], rep)
		}
		return err
	}
	if o.seconds > 0 {
		// The driver's mode: each workload measures for o.seconds. A
		// repetition (with the probe that follows it) is added only
		// while it is expected to end inside that budget.
		for _, w := range selected {
			start, n := time.Now(), 0
			for n == 0 || time.Since(start).Seconds()*float64(n+1)/float64(n) <= o.seconds {
				if err := one(w); err != nil {
					return false, err
				}
				n++
			}
		}
	} else {
		// Round-robin, so that a noisy minute lands on every workload.
		for i := 0; i < o.reps; i++ {
			for _, w := range selected {
				if err := one(w); err != nil {
					return false, err
				}
			}
		}
	}

	traced := make(map[string]*repetition)
	if o.trace == 1 {
		var files []string
		for _, w := range selected {
			file := filepath.Join(o.out, "trace-"+w.Name+".json")
			rep, err := spawn(o, w, 1, file, speed, stderr)
			if err != nil {
				return false, err
			}
			traced[w.Name] = rep
			files = append(files, file)
		}
		if err := mergeTraces(filepath.Join(o.out, "trace.json"), selected, files); err != nil {
			return false, err
		}
	}

	rpt := report{
		Seed: o.seed, Smoke: o.smoke, NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	for _, w := range selected {
		rpt.Workloads = append(rpt.Workloads, aggregate(w, w.input(p).Key, reps[w.Name], traced[w.Name], exp))
	}
	rpt.crossCheck()
	rpt.print(stdout)
	data, err := json.MarshalIndent(rpt, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(o.out, "report.json"), append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	for _, w := range rpt.Workloads {
		failed = failed || w.Failed > 0
	}
	if o.workload != "" && o.seconds > 0 {
		if err := rpt.Workloads[0].driverLine(stdout, o.trace == 1); err != nil {
			return false, err
		}
	}
	return failed, nil
}

// mergeTraces joins the children's trace files into one Chrome trace,
// one named process per workload.
func mergeTraces(path string, selected []workload, files []string) error {
	var events []map[string]any
	for pid, file := range files {
		events = append(events, map[string]any{
			"name": "process_name", "ph": "M", "pid": pid + 1, "args": map[string]any{"name": selected[pid].Name},
		})
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		var one struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &one); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		for _, ev := range one.TraceEvents {
			ev["pid"] = pid + 1
			events = append(events, ev)
		}
		if err := os.Remove(file); err != nil {
			return err
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
