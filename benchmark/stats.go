package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by nearest rank:
// the smallest element with at least q of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle of xs (the mean of the two middle elements for
// an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// summary is one metric on one workload. Min and Max are the extremes of the
// same statistic taken on parts of the run (the set-up repeats, or the
// groups the timed passes are cut into): how far it moves within one run.
type summary struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Parts   int     `json:"parts"`
	Samples int     `json:"samples"` // observations behind Value
}

// withSpread attaches the extremes of parts to value.
func withSpread(unit string, value float64, parts []float64, samples int) summary {
	s := summary{Value: value, Unit: unit, Min: value, Max: value, Parts: len(parts), Samples: samples}
	for _, v := range parts {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	return s
}

// medianOf summarizes repeats of one measurement by their median.
func medianOf(unit string, repeats []float64) summary {
	return withSpread(unit, median(repeats), repeats, len(repeats))
}

// exact summarizes a quantity that does not vary within a run.
func exact(unit string, v float64, samples int) summary {
	return withSpread(unit, v, nil, samples)
}

// floors returns, for each of the positions operations of a pass, the
// smallest latency that position showed in any pass, in nanoseconds. ns
// holds whole passes in operation order. On a host that steals cycles in
// bursts covering up to half of a run, the floor over some tens of passes
// is the only statistic of a latency that repeats: the median moves with
// how much of the run happened to be disturbed.
func floors(ns []int64, positions int) []float64 {
	out := make([]float64, positions)
	for i, v := range ns {
		if p := i % positions; i < positions || float64(v) < out[p] {
			out[p] = float64(v)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// nsToSorted converts nanosecond samples to sorted values in a larger unit.
func nsToSorted(ns []int64, perUnit float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / perUnit
	}
	sort.Float64s(out)
	return out
}
