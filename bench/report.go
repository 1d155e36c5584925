package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// metricValue is one reported metric: the median over the repetitions
// (peak_rss_mb: their minimum) with their range, quartiles and count. Per-layer
// metrics come from the single traced pass (N = 1), except the client
// metrics, which are medians over the untraced repetitions.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
	// Raw is the median as the clock read it, where Value, Min and Max
	// are at reference speed (see probe.go); omitted where no
	// correction applies.
	Raw float64 `json:"raw,omitempty"`
}

// workloadReport is one workload's row set in report.json.
type workloadReport struct {
	Name        string                 `json:"name"`
	Network     string                 `json:"network"` // expected.json key of the input variant
	Fingerprint string                 `json:"fingerprint"`
	Modes       int64                  `json:"modes"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Failures    []string               `json:"failures,omitempty"`
	Samples     map[string]int         `json:"samples,omitempty"` // latency sample counts per repetition, by kind
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
}

// report is bench/out/report.json, and bench/baseline.json when
// committed.
type report struct {
	Seed       int64            `json:"seed"`
	Smoke      bool             `json:"smoke,omitempty"`
	NumCPU     int              `json:"num_cpu"`
	GoMaxProcs int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	Workloads  []workloadReport `json:"workloads"`
}

func summarize(unit string, v []float64) metricValue {
	m := metricValue{Unit: unit, N: len(v), Value: median(v), Q1: quantile(v, 0.25), Q3: quantile(v, 0.75)}
	for i, x := range v {
		if i == 0 || x < m.Min {
			m.Min = x
		}
		if i == 0 || x > m.Max {
			m.Max = x
		}
	}
	return m
}

// aggregate folds a workload's repetitions (and its traced pass, when
// one ran) into its report rows and verifies the exact counters.
func aggregate(w workload, network string, reps []*repetition, traced *repetition, exp *expectations) workloadReport {
	r := workloadReport{Name: w.Name, Network: network, EndToEnd: make(map[string]metricValue)}
	series := make(map[string][]float64)
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	for _, rep := range reps {
		r.Attempted += rep.Attempted
		r.Failed += rep.Failed
		r.Failures = append(r.Failures, rep.Failures...)
		r.Fingerprint, r.Modes = rep.Fingerprint, rep.Modes
		// Times are divided, rates multiplied, by the repetition's
		// speed factor; "raw " series keep the clock's reading.
		timed := func(name string, seconds float64) {
			add(name, seconds/rep.Speed)
			add("raw "+name, seconds)
		}
		rate := func(name string, perSecond float64) {
			add(name, perSecond*rep.Speed)
			add("raw "+name, perSecond)
		}
		timed("setup_s", rep.SetupS)
		timed("wall_s", rep.WallS)
		timed("cpu_s", rep.CPUS)
		rate("modes_per_s", ratio(float64(rep.Modes), rep.WallS))
		add("peak_rss_mb", rep.PeakRSSMB)
		add("bench.speed_factor", rep.Speed)

		cold, hit := rep.Samples["cold"], rep.Samples["hit"]
		timed("client.first_mode_s", median(rep.Samples["first_mode"]))
		timed("client.job_cold_p50_s", quantile(cold, 0.50))
		timed("client.job_cold_p75_s", quantile(cold, 0.75))
		timed("client.job_hit_p50_s", quantile(hit, 0.50))
		timed("client.job_hit_p90_s", quantile(hit, 0.90))
		jobs := 0
		for kind, v := range rep.Samples {
			if kind != "first_mode" {
				jobs += len(v)
			}
		}
		rate("client.jobs_per_s", ratio(float64(jobs), rep.WallS))
		if r.Samples == nil && len(rep.Samples) > 0 {
			r.Samples = make(map[string]int)
			for kind, v := range rep.Samples {
				r.Samples[kind] = len(v)
			}
		}
	}
	summary := func(m metricDef) metricValue {
		v := summarize(m.Unit, series[m.Name])
		v.Raw = median(series["raw "+m.Name])
		if m.Name == "peak_rss_mb" {
			// How far the heap overshoots before a collection ends
			// depends on scheduling and only ever adds, so the smallest
			// peak of the repetitions is what the workload needs.
			v.Value = v.Min
		}
		return v
	}
	for _, m := range metrics {
		if m.EndToEnd {
			r.EndToEnd[m.Name] = summary(m)
		}
	}
	if traced == nil {
		return r
	}

	r.Attempted += traced.Attempted
	r.Failed += traced.Failed
	r.Failures = append(r.Failures, traced.Failures...)
	r.Attempted++
	if len(reps) > 0 && traced.Fingerprint != r.Fingerprint {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf("traced pass fingerprint %s differs from the untraced %s", traced.Fingerprint, r.Fingerprint))
	}
	r.PerLayer = make(map[string]metricValue)
	for _, m := range metrics {
		switch {
		case m.EndToEnd:
		case len(series[m.Name]) > 0:
			r.PerLayer[m.Name] = summary(m)
		default:
			r.PerLayer[m.Name] = summarize(m.Unit, []float64{traced.Layer[m.Name]})
		}
	}
	// Both walls at reference speed; the layer times of the traced pass
	// themselves stay as the clock read them.
	untraced := r.EndToEnd["wall_s"].Value
	r.PerLayer["bench.trace_overhead_frac"] = summarize("ratio", []float64{ratio(traced.TracedWallS/traced.Speed-untraced, untraced)})
	for name, want := range exp.Counters[w.Name+"/"+network] {
		r.Attempted++
		if got := r.PerLayer[name].Value; got != want {
			r.Failed++
			r.Failures = append(r.Failures, fmt.Sprintf("%s = %v, expected.json pins %v", name, got, want))
		}
	}
	r.PerLayer["bench.failed_frac"] = summarize("ratio", []float64{ratio(float64(r.Failed), float64(r.Attempted))})
	return r
}

// crossCheck holds the drivers equal: every workload that ran the
// yeast1-dd input must report one fingerprint.
func (r *report) crossCheck() {
	first := -1
	for i := range r.Workloads {
		w := &r.Workloads[i]
		switch w.Name {
		case "yeast-serial", "yeast-combined", "efmd-fleet":
		default:
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		w.Attempted++
		if w.Fingerprint != r.Workloads[first].Fingerprint {
			w.Failed++
			w.Failures = append(w.Failures, fmt.Sprintf("fingerprint %s differs from %s's %s",
				w.Fingerprint, r.Workloads[first].Name, r.Workloads[first].Fingerprint))
		}
	}
}

// print lists every metric by name with its unit.
func (r *report) print(out io.Writer) {
	fmt.Fprintf(out, "seed %d, %d CPUs, GOMAXPROCS %d, %s %s/%s; times at reference speed, raw readings beside them\n",
		r.Seed, r.NumCPU, r.GoMaxProcs, r.GoVersion, r.GOOS, r.GOARCH)
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	for _, w := range r.Workloads {
		fmt.Fprintf(tw, "\n%s\t%s\t%d modes\t%s\tfailed %d/%d\n", w.Name, w.Network, w.Modes, w.Fingerprint, w.Failed, w.Attempted)
		for _, f := range w.Failures {
			fmt.Fprintf(tw, "  FAILED\t%s\n", f)
		}
		for _, m := range metrics {
			v, ok := w.EndToEnd[m.Name]
			if !ok {
				if v, ok = w.PerLayer[m.Name]; !ok {
					continue
				}
			}
			note := ""
			switch {
			case m.Exact:
				note = "exact"
			case v.N > 1:
				note = fmt.Sprintf("min %.6g  max %.6g  n=%d", v.Min, v.Max, v.N)
			}
			if v.Raw != 0 {
				note = strings.TrimSpace(fmt.Sprintf("raw %.6g  %s", v.Raw, note))
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", m.Name, v.Value, v.Unit, note)
		}
		for _, kind := range []string{"cold", "hit", "stream", "prefix", "first_mode"} {
			if n := w.Samples[kind]; n > 0 {
				fmt.Fprintf(tw, "  (%s latency samples per repetition)\t%d\t\t\n", kind, n)
			}
		}
	}
	tw.Flush()
}

// driverLine prints the result object BENCHMARK.json's driver reads:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func (w *workloadReport) driverLine(out io.Writer, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: w.Failed == 0, Attempted: w.Attempted, Failed: w.Failed, Metrics: make(map[string]value)}
	from := w.EndToEnd
	if traced {
		from = w.PerLayer
	}
	for name, v := range from {
		line.Metrics[name] = value{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}
