package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json that -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles judges report b against report a: every bounded metric
// by the relative change of its median in the worse direction, every
// exact counter on equality. It prints one block per workload and
// reports whether anything was breached.
func compareFiles(out io.Writer, benchmarkPath string, files []string) (breached bool, err error) {
	if len(files) != 2 {
		return false, errors.New("-compare takes two report files")
	}
	var bm benchmarkFile
	if err := readJSON(benchmarkPath, &bm); err != nil {
		return false, err
	}
	bounds := make(map[string]float64)
	for name, b := range compareBounds {
		bounds[name] = b
	}
	for _, m := range bm.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var a, b report
	if err := readJSON(files[0], &a); err != nil {
		return false, err
	}
	if err := readJSON(files[1], &b); err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	defer tw.Flush()
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			continue
		}
		fmt.Fprintf(tw, "\n%s\t%s\t%s\t%s\t%s\n", wa.Name, files[0], files[1], "change", "verdict")
		if wa.Network != wb.Network {
			fmt.Fprintf(tw, "  inputs differ\t%s\t%s\t\tcounters not compared\n", wa.Network, wb.Network)
		}
		if wb.Failed > 0 {
			breached = true
			fmt.Fprintf(tw, "  failed operations\t%d\t%d\t\tBREACH\n", wa.Failed, wb.Failed)
		}
		for _, m := range metrics {
			va, ok := wa.EndToEnd[m.Name]
			vb := wb.EndToEnd[m.Name]
			if !ok {
				if va, ok = wa.PerLayer[m.Name]; !ok {
					continue
				}
				if vb, ok = wb.PerLayer[m.Name]; !ok {
					continue
				}
			}
			if va.Value == 0 && vb.Value == 0 {
				continue
			}
			verdict := judge(m, va, vb, bounds, wa.Network == wb.Network)
			if verdict == "BREACH" {
				breached = true
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%.6g %s\t%+.1f%%\t%s\n", m.Name, va.Value, vb.Value, m.Unit,
				100*ratio(vb.Value-va.Value, va.Value), verdict)
		}
	}
	return breached, nil
}

// judge gives one metric's verdict. A bounded metric whose median got
// worse by more than its bound is a breach — unless the two sets' own
// min–max ranges overlap, in which case the sets cannot tell a
// regression from their spread and the metric is unresolved. A metric
// whose spread alone (the distance between the quartiles of its
// repetitions) exceeds the bound is unresolved too, unless every run of
// b reads better than every run of a.
func judge(m metricDef, a, b metricValue, bounds map[string]float64, sameInput bool) string {
	if m.Exact {
		switch {
		case !sameInput:
			return ""
		case a.Value != b.Value:
			return "BREACH"
		}
		return "equal"
	}
	bound, bounded := bounds[m.Name]
	if !bounded {
		return ""
	}
	worse := ratio(b.Value-a.Value, a.Value)
	allBetter := b.Max < a.Min
	if m.Better == "higher" {
		worse = -worse
		allBetter = b.Min > a.Max
	}
	overlap := a.Min <= b.Max && b.Min <= a.Max
	spread := func(v metricValue) float64 { return ratio(v.Q3-v.Q1, v.Value) }
	switch {
	case worse > bound && overlap:
		return "unresolved"
	case worse > bound:
		return "BREACH"
	case (spread(a) > bound || spread(b) > bound) && !allBetter:
		return "unresolved"
	}
	return "ok"
}
