package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// exactMetrics repeat exactly for equal inputs, so any difference between
// two results on the same inputs_digest is a real change. The bound
// candidates_per_result carries in BENCHMARK.json covers different seeds.
var exactMetrics = map[string]bool{
	"candidates_per_result": true,
	"page_reads_per_query":  true,
	"failed_frac":           true,
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result.json files: both medians, both spreads over rounds, the change as
// a share of A, the bound, and a verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadResult(pathA)
	if err != nil {
		return err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return err
	}
	if a.Env.InputsDigest != b.Env.InputsDigest {
		return fmt.Errorf("inputs differ: inputs_digest %s vs %s", a.Env.InputsDigest, b.Env.InputsDigest)
	}
	if a.Env.NProc != b.Env.NProc {
		return fmt.Errorf("machines differ: nproc %d vs %d", a.Env.NProc, b.Env.NProc)
	}
	fmt.Fprintf(w, "A %s (commit %s)\nB %s (commit %s)\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	fmt.Fprintf(w, "%-14s %-22s %14s %8s %14s %8s %9s %7s  %s\n",
		"workload", "metric", "A", "spread", "B", "spread", "change", "bound", "verdict")
	for i := range workloads {
		name := workloads[i].name
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), scoped...) {
			sa, okA := wa.EndToEnd[d.name]
			sb, okB := wb.EndToEnd[d.name]
			if !okA || !okB {
				continue
			}
			bound := d.bound
			if exactMetrics[d.name] {
				bound = 0
			}
			change, verdict := judge(sa, sb, d.better, bound)
			fmt.Fprintf(w, "%-14s %-22s %14.4f %7.1f%% %14.4f %7.1f%% %+8.1f%% %6.0f%%  %s\n",
				name, d.name, sa.Value, 100*spread(sa), sb.Value, 100*spread(sb), 100*change, 100*bound, verdict)
		}
	}
	return nil
}

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spread is the distance between a metric's extreme rounds as a share of
// its median.
func spread(s summary) float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Value
}

// judge returns how much worse B is than A as a share of A (negative when
// better) and the verdict. A change inside the bound is "same". When either
// side's rounds spread wider than the bound, a difference smaller than that
// spread is "unresolved": the runs cannot tell it from noise.
func judge(a, b summary, better string, bound float64) (change float64, verdict string) {
	if a.Value == b.Value {
		return 0, "same"
	}
	if a.Value == 0 {
		return 0, "unresolved"
	}
	change = (b.Value - a.Value) / a.Value
	if better == "higher" {
		change = -change
	}
	noise := max(spread(a), spread(b))
	switch {
	case noise > bound && change <= noise && change >= -noise:
		return change, "unresolved"
	case change > bound:
		return change, "worse"
	case change < -bound:
		return change, "better"
	default:
		return change, "same"
	}
}
