// Package bench holds the one experiment cmd/areabench runs and nothing
// else: the paper reproduction (every table and figure of the paper's
// evaluation section, as deterministic candidate counters next to
// indicative timings). Performance is measured by the repository benchmark
// (`go run -C benchmark .`), not here.
//
// The paper's protocol: points uniform in a unit universe; the query area
// is a randomly generated 10-vertex polygon; "query size" is the area of
// the query polygon's MBR divided by the universe area; every configuration
// is repeated R times (1000 in the paper) and averaged.
//
//   - Table I / Fig. 4 / Fig. 5: data size swept 1E5..1E6, query size 1%.
//   - Table II / Fig. 6 / Fig. 7: query size swept 1..32%, data size 1E5.
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// Config parameterizes an experiment run.
type Config struct {
	// DataSizes for the data-size sweep (Table I, Figs. 4-5).
	DataSizes []int
	// QuerySizes for the query-size sweep (Table II, Figs. 6-7), as
	// fractions of the universe area.
	QuerySizes []float64
	// FixedQuerySize for the data-size sweep. Paper: 0.01.
	FixedQuerySize float64
	// FixedDataSize for the query-size sweep. Paper: 1E5.
	FixedDataSize int
	// Repeats per configuration. Paper: 1000.
	Repeats int
	// Vertices per query polygon. Paper: 10.
	Vertices int
	// Seed makes runs reproducible.
	Seed int64
	// Store, when non-nil, backs records with the paged store so page IO
	// is measured alongside time and candidates.
	Store *core.StoreConfig
	// Progress, when non-nil, receives one line per completed row.
	Progress io.Writer
}

// PaperConfig returns the paper's exact sweep parameters with the given
// repeat count (the paper uses 1000; smaller values keep wall-clock time
// reasonable while preserving the shape).
func PaperConfig(repeats int) Config {
	return Config{
		DataSizes:      []int{1e5, 2e5, 3e5, 4e5, 5e5, 6e5, 7e5, 8e5, 9e5, 1e6},
		QuerySizes:     []float64{0.01, 0.02, 0.04, 0.08, 0.16, 0.32},
		FixedQuerySize: 0.01,
		FixedDataSize:  1e5,
		Repeats:        repeats,
		Vertices:       10,
		Seed:           20200420, // ICDE 2020 start date
	}
}

// MethodResult aggregates one method's per-query statistics over the
// repeats of one configuration. All values are means.
type MethodResult struct {
	Candidates float64
	Redundant  float64
	TimeMs     float64
	PageReads  float64 // only measured with a store-backed run (Row.Stored)
	TimeSD     float64 // standard deviation of per-query ms
}

// Row is one configuration (one line of a table, one x position of a
// figure).
type Row struct {
	DataSize    int
	QuerySize   float64
	ResultSize  float64
	Traditional MethodResult
	Voronoi     MethodResult
	// Stored records that the sweep ran over the paged store, so each
	// method's PageReads were measured.
	Stored bool
	// Mismatches counts repeats on which the Voronoi method's result set
	// differed from the traditional one. The published expansion rule is a
	// heuristic that can, on adversarially thin polygons relative to the
	// point spacing, miss part of the area (see README.md, "Expansion
	// rules"); in the paper's own workload regime this stays at zero.
	// Reported rather than hidden.
	Mismatches int
}

// CandidateSavings returns the fraction of candidate validations the
// Voronoi method avoided relative to the traditional method.
func (r Row) CandidateSavings() float64 {
	if r.Traditional.Candidates == 0 {
		return 0
	}
	return 1 - r.Voronoi.Candidates/r.Traditional.Candidates
}

// TimeSavings returns the fraction of time the Voronoi method saved.
func (r Row) TimeSavings() float64 {
	if r.Traditional.TimeMs == 0 {
		return 0
	}
	return 1 - r.Voronoi.TimeMs/r.Traditional.TimeMs
}

// check refuses a configuration whose rows would not hold what they are
// labelled with: a mean over no repeats, or a polygon of fewer than three
// vertices (workload.RandomPolygon would draw its default instead).
func (cfg Config) check() error {
	if cfg.Repeats < 1 {
		return fmt.Errorf("bench: %d repeats, a mean needs at least 1", cfg.Repeats)
	}
	if cfg.Vertices < 3 {
		return fmt.Errorf("bench: %d vertices, a polygon has at least 3", cfg.Vertices)
	}
	return nil
}

// RunDataSizeSweep regenerates Table I (and the data of Figs. 4 and 5).
func RunDataSizeSweep(cfg Config) ([]Row, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	rows := make([]Row, 0, len(cfg.DataSizes))
	for i, n := range cfg.DataSizes {
		row, err := runConfiguration(cfg, n, cfg.FixedQuerySize, cfg.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		progress(cfg, "data size %d: result=%.1f trad=(%.1f cand, %.3f ms) vor=(%.1f cand, %.3f ms)",
			n, row.ResultSize,
			row.Traditional.Candidates, row.Traditional.TimeMs,
			row.Voronoi.Candidates, row.Voronoi.TimeMs)
	}
	return rows, nil
}

// RunQuerySizeSweep regenerates Table II (and the data of Figs. 6 and 7).
func RunQuerySizeSweep(cfg Config) ([]Row, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	// One dataset, swept query sizes — as in the paper.
	ds, err := newDataset(cfg, cfg.FixedDataSize, cfg.Seed+1000)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, 0, len(cfg.QuerySizes))
	for i, qs := range cfg.QuerySizes {
		row, err := ds.measure(cfg, qs, cfg.Seed+2000+int64(i))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		progress(cfg, "query size %.0f%%: result=%.1f trad=(%.1f cand, %.3f ms) vor=(%.1f cand, %.3f ms)",
			qs*100, row.ResultSize,
			row.Traditional.Candidates, row.Traditional.TimeMs,
			row.Voronoi.Candidates, row.Voronoi.TimeMs)
	}
	return rows, nil
}

func progress(cfg Config, format string, args ...interface{}) {
	if cfg.Progress != nil {
		fmt.Fprintf(cfg.Progress, format+"\n", args...)
	}
}

// dataset bundles everything needed to run queries against one point set.
type dataset struct {
	n      int
	eng    *core.Engine
	data   *core.MemoryData
	bounds geom.Rect
}

func newDataset(cfg Config, n int, seed int64) (*dataset, error) {
	bounds := geom.NewRect(0, 0, 1, 1)
	rng := rand.New(rand.NewSource(seed))
	pts := workload.UniformPoints(rng, n, bounds)

	var (
		data *core.MemoryData
		err  error
	)
	if cfg.Store != nil {
		data, err = core.NewStoreData(pts, bounds, *cfg.Store)
	} else {
		data, err = core.NewMemoryData(pts, bounds)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: building dataset (n=%d): %w", n, err)
	}
	idx := core.NewRTreeIndex(data.Positions(), rtree.DefaultMaxEntries)
	return &dataset{n: n, eng: core.NewEngine(idx, data), data: data, bounds: bounds}, nil
}

func runConfiguration(cfg Config, n int, querySize float64, seed int64) (Row, error) {
	ds, err := newDataset(cfg, n, seed)
	if err != nil {
		return Row{}, err
	}
	return ds.measure(cfg, querySize, seed+7)
}

// measure runs cfg.Repeats fresh query polygons of the given query size
// through both methods and averages the statistics.
func (ds *dataset) measure(cfg Config, querySize float64, seed int64) (Row, error) {
	rng := rand.New(rand.NewSource(seed))
	var traditional, voronoi methodAcc
	resultSum, mismatches := 0, 0
	for rep := 0; rep < cfg.Repeats; rep++ {
		area := workload.RandomPolygon(rng, workload.PolygonConfig{
			Vertices:  cfg.Vertices,
			QuerySize: querySize,
		}, ds.bounds)
		region := core.PolygonRegion(area)

		want, err := ds.run(region, core.Traditional, &traditional)
		if err != nil {
			return Row{}, err
		}
		got, err := ds.run(region, core.VoronoiBFS, &voronoi)
		if err != nil {
			return Row{}, err
		}
		resultSum += len(want)
		// core returns ids in discovery order; compare the answers, not
		// their lengths.
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			mismatches++
		}
	}
	return Row{
		DataSize:    ds.n,
		QuerySize:   querySize,
		ResultSize:  float64(resultSum) / float64(cfg.Repeats),
		Traditional: traditional.result(),
		Voronoi:     voronoi.result(),
		Stored:      cfg.Store != nil,
		Mismatches:  mismatches,
	}, nil
}

// methodAcc sums one method's per-query statistics over the repeats of one
// configuration; timesMs has one entry per query.
type methodAcc struct {
	cand, red, pageReads int
	timesMs              []float64
}

// run answers region with method m, adds the query's statistics to acc
// and returns the result ids. It empties the store's pool first, so each
// method's page reads count every page it needs from an empty pool.
func (ds *dataset) run(region core.Region, m core.Method, acc *methodAcc) ([]int64, error) {
	if st := ds.data.Store(); st != nil {
		st.DropCache()
	}
	ioBefore := ds.data.IOStats().PageReads // 0 in memory
	start := time.Now()
	ids, st, err := ds.eng.QueryRegionSpec(context.Background(), region, core.QuerySpec{Method: m})
	elapsed := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("bench: %v query failed: %w", m, err)
	}
	acc.cand += st.Candidates
	acc.red += st.RedundantValidations
	acc.timesMs = append(acc.timesMs, float64(elapsed.Nanoseconds())/1e6)
	acc.pageReads += ds.data.IOStats().PageReads - ioBefore
	return ids, nil
}

// result averages the sums; the time column also gets its sample standard
// deviation.
func (a *methodAcc) result() MethodResult {
	n := float64(len(a.timesMs))
	var sum float64
	for _, t := range a.timesMs {
		sum += t
	}
	mean := sum / n
	var ss float64
	for _, t := range a.timesMs {
		ss += (t - mean) * (t - mean)
	}
	var sd float64
	if n > 1 {
		sd = math.Sqrt(ss / (n - 1))
	}
	return MethodResult{
		Candidates: float64(a.cand) / n,
		Redundant:  float64(a.red) / n,
		TimeMs:     mean,
		TimeSD:     sd,
		PageReads:  float64(a.pageReads) / n,
	}
}

// pageColumns heads the two columns a table over the store adds: each
// method's page reads per query.
const pageColumns = " | Trad pages/query | Vor pages/query"

// FormatTable renders rows in the layout of the paper's tables: one line
// per configuration with result size, candidate counts and times for both
// methods, and, when the sweep ran over the store, their page reads.
// labelQuery selects the first column (data size vs query size).
func FormatTable(rows []Row, labelQuery bool) string {
	stored := len(rows) > 0 && rows[0].Stored
	var b strings.Builder
	if labelQuery {
		b.WriteString("Query size | Result size | Trad candidates | Trad time(ms) | Vor candidates | Vor time(ms) | Cand saved | Time saved")
	} else {
		b.WriteString("Data size  | Result size | Trad candidates | Trad time(ms) | Vor candidates | Vor time(ms) | Cand saved | Time saved")
	}
	rule := 120
	if stored {
		b.WriteString(pageColumns)
		rule += len(pageColumns)
	}
	b.WriteString("\n" + strings.Repeat("-", rule) + "\n")
	for _, r := range rows {
		label := fmt.Sprintf("%-10d", r.DataSize)
		if labelQuery {
			label = fmt.Sprintf("%9.0f%%", r.QuerySize*100)
		}
		fmt.Fprintf(&b, "%s | %11.2f | %15.2f | %13.3f | %14.2f | %12.3f | %9.1f%% | %9.1f%%",
			label, r.ResultSize,
			r.Traditional.Candidates, r.Traditional.TimeMs,
			r.Voronoi.Candidates, r.Voronoi.TimeMs,
			r.CandidateSavings()*100, r.TimeSavings()*100)
		if stored {
			fmt.Fprintf(&b, " | %16.2f | %15.2f", r.Traditional.PageReads, r.Voronoi.PageReads)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FigureSeries identifies which figure data to extract from a sweep.
type FigureSeries int

// The four figures of the evaluation section.
const (
	Fig4TimeVsDataSize FigureSeries = iota
	Fig5RedundantVsDataSize
	Fig6TimeVsQuerySize
	Fig7RedundantVsQuerySize
)

// String implements fmt.Stringer.
func (f FigureSeries) String() string {
	switch f {
	case Fig4TimeVsDataSize:
		return "Fig.4 time cost vs data size"
	case Fig5RedundantVsDataSize:
		return "Fig.5 redundant validations vs data size"
	case Fig6TimeVsQuerySize:
		return "Fig.6 time cost vs query size"
	case Fig7RedundantVsQuerySize:
		return "Fig.7 redundant validations vs query size"
	default:
		return fmt.Sprintf("figure(%d)", int(f))
	}
}

// FormatFigure renders the (x, traditional, voronoi) series of a figure as
// an aligned text table — the data behind the paper's plotted curves.
func FormatFigure(rows []Row, f FigureSeries) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", f)
	xLabel, yTrad, yVor := "x", "traditional", "voronoi"
	switch f {
	case Fig4TimeVsDataSize, Fig5RedundantVsDataSize:
		xLabel = "data_size"
	case Fig6TimeVsQuerySize, Fig7RedundantVsQuerySize:
		xLabel = "query_size_pct"
	}
	fmt.Fprintf(&b, "%-14s %14s %14s\n", xLabel, yTrad, yVor)
	for _, r := range rows {
		var x, t, v float64
		switch f {
		case Fig4TimeVsDataSize:
			x, t, v = float64(r.DataSize), r.Traditional.TimeMs, r.Voronoi.TimeMs
		case Fig5RedundantVsDataSize:
			x, t, v = float64(r.DataSize), r.Traditional.Redundant, r.Voronoi.Redundant
		case Fig6TimeVsQuerySize:
			x, t, v = r.QuerySize*100, r.Traditional.TimeMs, r.Voronoi.TimeMs
		case Fig7RedundantVsQuerySize:
			x, t, v = r.QuerySize*100, r.Traditional.Redundant, r.Voronoi.Redundant
		}
		fmt.Fprintf(&b, "%-14.4g %14.4f %14.4f\n", x, t, v)
	}
	return b.String()
}
