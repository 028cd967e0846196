package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// tinyScale keeps every ratio of fullScale that the procedure relies on:
// the mixed pool is three polygons to one circle, a dynamic warm-up covers
// the area pool once, and batches tile the mixed pool.
var tinyScale = scale{
	points: 4000, areaPool: 64, smallPool: 128,
	mixedPolys: 48, mixedCircs: 16, batch: 8,
	preload: 1000, cycleReads: 8, geomCalls: 20_000,
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.10, 1}, {0.50, 5}, {0.51, 6}, {0.90, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestSummaries(t *testing.T) {
	in := []float64{5, 1, 9, 3, 7}
	s := medianOf("s", in)
	want := summary{Value: 5, Unit: "s", Min: 1, Max: 9, Parts: 5, Samples: 5}
	if s != want {
		t.Errorf("medianOf = %+v, want %+v", s, want)
	}
	if !reflect.DeepEqual(in, []float64{5, 1, 9, 3, 7}) {
		t.Errorf("medianOf reordered its input: %v", in)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	// The run's value may sit beyond the extremes of its parts.
	s = withSpread("us", 2, []float64{3, 4}, 10)
	if s.Min != 2 || s.Max != 4 || s.Parts != 2 {
		t.Errorf("withSpread = %+v", s)
	}
}

// TestReduce checks the floor-per-position reduction on three passes of
// two query slots and one insert slot.
func TestReduce(t *testing.T) {
	rd := &roundData{
		regions:  3 * 2,
		queryNs:  []int64{4000, 9000, 1000, 8000, 2000, 7000},
		insertNs: []int64{500, 300, 400},
	}
	if got := floors(rd.queryNs, 2); !reflect.DeepEqual(got, []float64{1000, 7000}) {
		t.Fatalf("floors = %v", got)
	}
	got := reduce(rd, 3, 0, 3, 1e3)
	// Two regions per pass in 1000+7000+300 ns.
	if want := 2 / 8300e-9; math.Abs(got.qps-want) > 1e-6 {
		t.Errorf("qps = %v, want %v", got.qps, want)
	}
	if got.p50us != 1 || got.p99us != 7 {
		t.Errorf("p50 %v p99 %v, want 1 and 7", got.p50us, got.p99us)
	}
	// The last pass alone.
	if last := reduce(rd, 3, 2, 3, 1e3); last.p50us != 2 || last.p99us != 7 {
		t.Errorf("last pass: %+v", last)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},   // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120},  // clipped to the parent
		{ID: 5, Parent: 2, Start: 15, End: 20},   // grandchild: only span 2 loses it
		{ID: 6, Parent: 99, Start: 0, End: 1000}, // orphan: costs nobody
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 30, 5: 5, 6: 1000} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestInputsDeterministic(t *testing.T) {
	a, b, c := genInputs(7, tinyScale), genInputs(7, tinyScale), genInputs(8, tinyScale)
	if a.digest != b.digest {
		t.Errorf("same seed, different digests: %s %s", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Errorf("different seeds, same digest %s", a.digest)
	}
	if len(a.mixed) != tinyScale.mixedPolys+tinyScale.mixedCircs {
		t.Fatalf("mixed pool has %d regions", len(a.mixed))
	}
	circles := 0
	for i, s := range a.mixed {
		if s.round {
			circles++
			if i%4 != 3 {
				t.Errorf("circle at mixed[%d], want every fourth region", i)
			}
		}
	}
	if circles != tinyScale.mixedCircs {
		t.Errorf("%d circles, want %d", circles, tinyScale.mixedCircs)
	}
	for i := 1; i < len(a.data); i++ {
		if mortonKey(a.data[i-1], a.bounds) > mortonKey(a.data[i], a.bounds) {
			t.Fatalf("D is not in Morton order at %d", i)
		}
	}
	for _, s := range a.area {
		if got := s.poly.Bounds().Area(); math.Abs(got-areaQuerySize) > 1e-9 {
			t.Fatalf("area polygon MBR covers %v, want %v", got, areaQuerySize)
		}
	}
}

func TestJudge(t *testing.T) {
	tight := func(v float64) summary { return summary{Value: v, Min: v * 0.99, Max: v * 1.01} }
	loose := func(v float64) summary { return summary{Value: v, Min: v * 0.8, Max: v * 1.2} }
	for _, c := range []struct {
		name   string
		a, b   summary
		better string
		bound  float64
		want   string
	}{
		{"identical", tight(100), tight(100), "lower", 0.1, "same"},
		{"inside the bound", tight(100), tight(105), "lower", 0.1, "same"},
		{"slower", tight(100), tight(120), "lower", 0.1, "worse"},
		{"faster", tight(100), tight(80), "lower", 0.1, "better"},
		{"throughput down", tight(100), tight(80), "higher", 0.1, "worse"},
		{"noisy", loose(100), loose(120), "lower", 0.1, "unresolved"},
		{"noisy but far apart", loose(100), loose(200), "lower", 0.1, "worse"},
		{"exact metric moved", tight(100), tight(100.5), "lower", 0, "unresolved"},
		{"exact metric moved, no spread", exact("count", 60, 1), exact("count", 61, 1), "lower", 0, "worse"},
	} {
		if _, got := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestSmoke drives all six workloads through oracle, timed rounds, traced
// round and probes at a scale that finishes in seconds, then checks the
// result, the trace files and the comparison mode.
func TestSmoke(t *testing.T) {
	logOut = io.Discard
	defer func() { logOut = os.Stderr }()
	dir := t.TempDir()
	in := genInputs(20200420, tinyScale)
	if err := runAll(context.Background(), io.Discard, in, fingerprint(in), 1, dir); err != nil {
		t.Fatal(err)
	}
	res, err := loadResult(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		name := workloads[i].name
		w := res.Workloads[name]
		if w == nil {
			t.Fatalf("%s missing from result.json", name)
		}
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", name, w.Failed, w.Attempted)
		}
		for _, d := range endToEnd {
			if s, ok := w.EndToEnd[d.name]; !ok || s.Value == 0 || math.IsNaN(s.Value) {
				t.Errorf("%s: end-to-end metric %s = %+v", name, d.name, s)
			}
		}
		for _, d := range traceMetrics() {
			if v, ok := w.PerLayer[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v)", name, d.name, v, ok)
			}
		}
		checkTrace(t, name, w)
	}
	if _, ok := res.Workloads["sharded-batch"].EndToEnd["batch_p99_ms"]; !ok {
		t.Error("sharded-batch has no batch_p99_ms")
	}
	if _, ok := res.Workloads["dynamic-mixed"].EndToEnd["insert_p50_us"]; !ok {
		t.Error("dynamic-mixed has no insert_p50_us")
	}

	path := filepath.Join(dir, "result.json")
	if err := compareFiles(io.Discard, path, path); err != nil {
		t.Errorf("comparing a result with itself: %v", err)
	}
	res.Env.InputsDigest = "0"
	other := filepath.Join(dir, "other.json")
	data, _ := json.Marshal(res)
	if err := os.WriteFile(other, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareFiles(io.Discard, path, other); err == nil {
		t.Error("comparison across different inputs was not refused")
	}
}

// checkTrace parses a workload's trace file and checks that every span
// with a parent lies inside it and shares its operation, and that every
// operation of the traced round has exactly one root.
func checkTrace(t *testing.T, name string, w *workloadResult) {
	t.Helper()
	f, err := os.Open(w.TraceFile)
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	defer f.Close()
	byID := map[int]span{}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Errorf("%s: trace line %d: %v", name, len(spans)+1, err)
			return
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	roots := map[int]int{}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d ends before it starts", name, s.ID)
		}
		if s.Parent == 0 {
			roots[s.Op]++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s: span %d has unknown parent %d", name, s.ID, s.Parent)
			continue
		}
		if s.Op != p.Op || s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %d %s [%d,%d] op %d escapes its parent %s [%d,%d] op %d",
				name, s.ID, s.Name, s.Start, s.End, s.Op, p.Name, p.Start, p.End, p.Op)
		}
	}
	for op := 1; op <= w.TraceOps; op++ {
		if roots[op] != 1 {
			t.Errorf("%s: operation %d has %d root spans", name, op, roots[op])
		}
	}
	if name == "remote-fanout" {
		handlers := 0
		for _, s := range spans {
			if s.Name == "serve.handler" && byID[s.Parent].Name == "remote.roundtrip" {
				handlers++
			}
		}
		if handlers == 0 {
			t.Error("remote-fanout: no handler span nests under a round trip")
		}
	}
	for id, d := range selfTimes(spans) {
		if d < 0 {
			t.Errorf("%s: span %d has negative self time %d", name, id, d)
		}
	}
}

// TestManifest keeps BENCHMARK.json and the tables in metrics.go and
// workloads.go from drifting apart.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds < 1 || m.RunSeconds > referenceSeconds {
		t.Errorf("run_seconds = %d, the pass counts are sized for at most %d", m.RunSeconds, referenceSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest has %q (%q), code has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range m.EndToEnd {
		want := endToEnd[i]
		if d.Name != want.name || d.Unit != want.unit || d.Better != want.better || d.Bound != want.bound {
			t.Errorf("end-to-end metric %d: manifest %+v, code %+v", i, d, want)
		}
	}
	layer := traceMetrics()
	if len(m.PerLayer) != len(layer) {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(m.PerLayer), len(layer))
	}
	for i, d := range m.PerLayer {
		want := layer[i]
		if d.Name != want.name || d.Unit != want.unit || d.Better != want.better {
			t.Errorf("per-layer metric %d: manifest %+v, code %+v", i, d, want)
		}
	}
}
