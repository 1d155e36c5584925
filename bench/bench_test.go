package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain turns the test binary into the bench when a parent pass
// re-executes it as a repetition child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

const benchmarkPath = "../BENCHMARK.json"

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	var d declared
	if err := readJSON(benchmarkPath, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesRegistry holds BENCHMARK.json equal to the
// metric and workload lists the program reports from.
func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the bench has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.Name || d.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the bench %q (%q)", i, d.Workloads[i].Name, d.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var e2eDefs, layerDefs []metricDef
	for _, m := range metrics {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q (%q) breaks the naming rules", m.Name, m.Unit)
		}
		if m.EndToEnd {
			e2eDefs = append(e2eDefs, m)
		} else {
			layerDefs = append(layerDefs, m)
		}
	}
	same := func(kind string, defs []metricDef, decl []declaredMetric) {
		if len(defs) != len(decl) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the bench reports %d", kind, len(decl), len(defs))
		}
		for i, m := range defs {
			if decl[i].Name != m.Name || decl[i].Unit != m.Unit || decl[i].Better != m.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the bench %+v", kind, i, decl[i], m)
			}
		}
	}
	same("end_to_end", e2eDefs, d.EndToEnd)
	same("per_layer", layerDefs, d.PerLayer)
	hasSetup := false
	for _, m := range d.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
	if len(d.EndToEnd) > 16 || len(d.PerLayer) > 128 || len(d.Workloads) < 2 || len(d.Workloads) > 8 {
		t.Error("BENCHMARK.json exceeds the contract's counts")
	}
}

// TestSmoke runs all six workloads and the traced pass on the smoke
// profile and checks the report, the trace, -compare and the driver's
// result line.
func TestSmoke(t *testing.T) {
	d := loadDeclared(t)
	out := t.TempDir()
	var stdout bytes.Buffer
	if code := run([]string{"-smoke", "-trace", "1", "-reps", "2", "-out", out}, &stdout, os.Stderr); code != 0 {
		t.Fatalf("bench -smoke exited %d\n%s", code, stdout.String())
	}
	var rpt report
	reportPath := filepath.Join(out, "report.json")
	if err := readJSON(reportPath, &rpt); err != nil {
		t.Fatal(err)
	}
	if len(rpt.Workloads) != len(d.Workloads) {
		t.Fatalf("report has %d workloads, BENCHMARK.json %d", len(rpt.Workloads), len(d.Workloads))
	}
	for i, w := range rpt.Workloads {
		if w.Name != d.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.Name, d.Workloads[i].Name)
		}
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, w.Failed, w.Attempted, w.Failures)
		}
		emitted := func(kind string, got map[string]metricValue, decl []declaredMetric) {
			if len(got) != len(decl) {
				t.Errorf("%s: %d %s metrics emitted, %d declared", w.Name, len(got), kind, len(decl))
			}
			for _, m := range decl {
				if v, ok := got[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s: %s metric %s missing or in unit %q, want %q", w.Name, kind, m.Name, v.Unit, m.Unit)
				}
			}
		}
		emitted("end_to_end", w.EndToEnd, d.EndToEnd)
		emitted("per_layer", w.PerLayer, d.PerLayer)
		for _, m := range d.EndToEnd {
			// A toy run can finish inside getrusage's resolution.
			if v := w.EndToEnd[m.Name].Value; v < 0 || (v == 0 && m.Name != "cpu_s") {
				t.Errorf("%s: end-to-end metric %s reads %v", w.Name, m.Name, v)
			}
		}
	}
	// The text output names every metric once per workload.
	for _, m := range append(append([]declaredMetric(nil), d.EndToEnd...), d.PerLayer...) {
		if n := strings.Count(stdout.String(), "\n  "+m.Name+" "); n != len(rpt.Workloads) {
			t.Errorf("metric %s printed %d times for %d workloads", m.Name, n, len(rpt.Workloads))
		}
	}

	// trace.json: Chrome trace format, every parent link resolves
	// inside its own process.
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
			Args struct {
				ID, Parent int
				Run        string
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := readJSON(filepath.Join(out, "trace.json"), &trace); err != nil {
		t.Fatal(err)
	}
	ids := make(map[[2]int]bool)
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			ids[[2]int{ev.PID, ev.Args.ID}] = true
		}
	}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "M" {
			continue // process name
		}
		if ev.Ph != "X" || ev.Args.Run == "" || (ev.Args.Parent != 0 && !ids[[2]int{ev.PID, ev.Args.Parent}]) {
			t.Fatalf("trace event %+v is not a linked complete event", ev)
		}
	}
	if len(ids) < 6*3 {
		t.Errorf("trace.json holds %d spans for six workloads", len(ids))
	}

	var cmp bytes.Buffer
	breached, err := compareFiles(&cmp, benchmarkPath, []string{reportPath, reportPath})
	if err != nil || breached {
		t.Errorf("comparing a report with itself: breached=%v err=%v\n%s", breached, err, cmp.String())
	}

	// The driver's invocation: the last line of standard output is the
	// result object, with the end-to-end metrics of an untraced run and
	// the per-layer metrics of a traced one.
	for trace, decl := range map[string][]declaredMetric{"0": d.EndToEnd, "1": d.PerLayer} {
		stdout.Reset()
		args := []string{"-smoke", "--workload", "efmd-knockout-scan", "--seed", "7", "--seconds", "0.05", "--trace", trace, "-out", out}
		if code := run(args, &stdout, os.Stderr); code != 0 {
			t.Fatalf("bench %v exited %d", args, code)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not a JSON object: %v", err)
		}
		if len(line) != 4 || string(line["correct"]) != "true" || string(line["failed"]) != "0" || string(line["attempted"]) == "0" {
			t.Errorf("trace %s: result object %s", trace, lines[len(lines)-1])
		}
		var got map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(line["metrics"], &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(decl) {
			t.Errorf("trace %s: %d metrics in the result object, %d declared", trace, len(got), len(decl))
		}
		for _, m := range decl {
			if v, ok := got[m.Name]; !ok || v.Value == nil || v.Unit != m.Unit {
				t.Errorf("trace %s: metric %s missing from the result object", trace, m.Name)
			}
		}
	}
}

// TestCompareVerdicts pins the three verdicts of a bounded metric.
func TestCompareVerdicts(t *testing.T) {
	wall, _ := metricByName("wall_s")
	bounds := map[string]float64{"wall_s": 0.10}
	v := func(value, min, max float64) metricValue {
		return metricValue{Value: value, Min: min, Q1: (value + min) / 2, Q3: (value + max) / 2, Max: max, N: 5}
	}
	for _, c := range []struct {
		a, b metricValue
		want string
	}{
		{v(10, 9.9, 10.1), v(10.5, 10.4, 10.6), "ok"},
		{v(10, 9.9, 10.1), v(11.5, 11.4, 11.6), "BREACH"},
		{v(10, 9.0, 11.8), v(11.5, 11.4, 11.6), "unresolved"},
		{v(10, 8.0, 12.0), v(10.1, 10.0, 10.2), "unresolved"},
		{v(10, 9.0, 12.0), v(8, 7.9, 8.1), "ok"},
	} {
		if got := judge(wall, c.a, c.b, bounds, true); got != c.want {
			t.Errorf("judge(%v, %v) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
	exactDef, _ := metricByName("core.candidates")
	if got := judge(exactDef, v(5, 5, 5), v(6, 6, 6), bounds, true); got != "BREACH" {
		t.Errorf("an exact counter that moved judged %q", got)
	}
}
