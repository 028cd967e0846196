package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloadResult is everything one workload reported.
type workloadResult struct {
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	TraceFile string             `json:"trace_file,omitempty"`
	TraceOps  int                `json:"trace_ops,omitempty"`
	// SelfUs is the median self time, in µs, of the trace's spans by name.
	SelfUs map[string]float64 `json:"trace_self_us,omitempty"`
}

// runPlan selects which halves of the procedure run: the timed passes that
// give the end-to-end metrics, the traced passes and probes that give the
// per-layer metrics, or both on one build.
type runPlan struct {
	timed   bool
	traced  bool
	seconds int
	outDir  string
}

// timing is what a block of passes says about speed: each position's floor
// latency (see floors), the throughput a client gets when every operation
// runs at its floor, and the percentiles of the floors across the pool.
type timing struct {
	qps, p50us, p99us float64
}

// reduce takes the timing of passes [lo, hi) of rd, which holds passes
// whole passes. perQuery converts a query-slot latency in nanoseconds to
// microseconds per region.
func reduce(rd *roundData, passes, lo, hi int, perQuery float64) timing {
	qPos, iPos := len(rd.queryNs)/passes, len(rd.insertNs)/passes
	q := floors(rd.queryNs[lo*qPos:hi*qPos], qPos)
	busy := sum(q)
	if iPos > 0 {
		busy += sum(floors(rd.insertNs[lo*iPos:hi*iPos], iPos))
	}
	for i := range q {
		q[i] /= perQuery
	}
	sort.Float64s(q)
	return timing{
		qps:   float64(rd.regions/passes) / busy * 1e9,
		p50us: percentile(q, 0.50),
		p99us: percentile(q, 0.99),
	}
}

// runWorkload follows the measurement procedure on one workload: build,
// oracle check, one discarded warm-up pass, the timed passes with tracing
// off, then the traced passes and the layer probes.
func runWorkload(ctx context.Context, w *workload, in *inputs, plan runPlan, pr *prober) (*workloadResult, error) {
	res := &workloadResult{}
	want := oracleFor(w, in)

	builds := 1
	if plan.timed {
		builds = setupRepeats
	}
	var (
		inst           instance
		setupS, heapMB []float64
	)
	for i := 0; i < builds; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		base := heapAfterGC()
		t0 := time.Now()
		built, err := w.setup(in, w.pool(in), want)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		inst = built
		heapMB = append(heapMB, (float64(heapAfterGC())-float64(base))/(1<<20))
	}
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()

	work, err := inst.verify(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: oracle mismatch: %w", w.name, err)
	}
	fmt.Fprintf(logOut, "%s: oracle ok on %d regions, %d results\n", w.name, len(want), work.ResultSize)

	var rd roundData
	inst.round(ctx, 1, nil, &rd)
	res.Attempted, res.Failed = rd.attempted, rd.failed

	// A traced run needs untraced passes only to compare its traced ones
	// with, so it runs one group's worth of each.
	passes := passesFor(w, plan.seconds)
	groups := min(spreadGroups, passes)
	if !plan.timed {
		passes, groups = max(1, passes/spreadGroups), 1
	}
	runtime.GC()
	inst.round(ctx, passes, nil, &rd)
	res.Attempted += rd.attempted
	res.Failed += rd.failed
	// A query slot's nanoseconds to µs per region: a QueryAll answers a
	// batch of regions in one slot.
	perSlot := rd.regions / len(rd.queryNs)
	perQuery := 1e3 * float64(perSlot)
	whole := reduce(&rd, passes, 0, passes, perQuery)
	var groupQPS, groupP50, groupP99 []float64
	for g := 0; g < groups; g++ {
		t := reduce(&rd, passes, g*passes/groups, (g+1)*passes/groups, perQuery)
		groupQPS = append(groupQPS, t.qps)
		groupP50 = append(groupP50, t.p50us)
		groupP99 = append(groupP99, t.p99us)
	}

	if plan.timed {
		n := len(rd.queryNs)
		e := map[string]summary{
			"setup_s":               medianOf("s", setupS),
			"heap_mb":               medianOf("MiB", heapMB),
			"queries_per_s":         withSpread("1/s", whole.qps, groupQPS, n),
			"query_p50_us":          withSpread("us", whole.p50us, groupP50, n),
			"query_p99_us":          withSpread("us", whole.p99us, groupP99, n),
			"allocs_per_query":      exact("count", float64(rd.mallocs)/float64(rd.regions), rd.regions),
			"candidates_per_result": exact("ratio", ratio(work.Candidates, work.ResultSize), len(want)),
		}
		// Metrics that exist only where a run batches, inserts or pages.
		if perSlot > 1 {
			scale := float64(perSlot) / 1e3 // per-region µs back to per-batch ms
			e["batch_p50_ms"] = scaled(e["query_p50_us"], scale, "ms")
			e["batch_p99_ms"] = scaled(e["query_p99_us"], scale, "ms")
		}
		if len(rd.insertNs) > 0 {
			e["insert_p50_us"] = exact("us", percentile(nsToSorted(rd.insertNs, 1e3), 0.50), len(rd.insertNs))
		}
		if rd.pageReads > 0 {
			e["page_reads_per_query"] = exact("count", float64(rd.pageReads)/float64(rd.regions), rd.regions)
		}
		res.EndToEnd = e
	}

	if plan.traced {
		tracedPasses := max(1, passes/groups)
		rec := newRecorder()
		inst.round(ctx, tracedPasses, rec, &rd)
		res.Attempted += rd.attempted
		res.Failed += rd.failed
		res.TraceOps = rd.attempted
		traced := reduce(&rd, tracedPasses, 0, tracedPasses, perQuery)
		inst.close()
		inst = nil

		layers, err := pr.layerMetrics(w.pool(in), rec, rd.attempted)
		if err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", w.name, err)
		}
		// Against groups of as many untraced passes as were traced, so
		// both floors had the same number of tries.
		layers["obs.trace_overhead_frac"] = 1 - traced.qps/median(groupQPS)
		layers["query_p99_us"] = whole.p99us
		res.PerLayer = layers

		if err := os.MkdirAll(plan.outDir, 0o755); err != nil {
			return nil, err
		}
		spans := rec.snapshot()
		res.SelfUs = selfByName(spans)
		res.TraceFile = filepath.Join(plan.outDir, "trace-"+w.name+".jsonl")
		if err := writeJSONL(res.TraceFile, spans); err != nil {
			return nil, fmt.Errorf("%s: writing trace: %w", w.name, err)
		}
	}

	failedFrac := float64(res.Failed) / float64(res.Attempted)
	if res.EndToEnd != nil {
		res.EndToEnd["failed_frac"] = exact("ratio", failedFrac, res.Attempted)
	}
	if res.PerLayer != nil {
		res.PerLayer["failed_frac"] = failedFrac
	}
	return res, nil
}

func scaled(s summary, by float64, unit string) summary {
	s.Value, s.Min, s.Max, s.Unit = s.Value*by, s.Min*by, s.Max*by, unit
	return s
}
