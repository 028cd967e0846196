package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

// smallConfig keeps harness tests fast while exercising the full pipeline.
func smallConfig() Config {
	return Config{
		DataSizes:      []int{2000, 4000},
		QuerySizes:     []float64{0.01, 0.04},
		FixedQuerySize: 0.01,
		FixedDataSize:  3000,
		Repeats:        5,
		Vertices:       10,
		Seed:           7,
	}
}

func TestRunDataSizeSweep(t *testing.T) {
	var progress bytes.Buffer
	cfg := smallConfig()
	cfg.Progress = &progress
	rows, err := RunDataSizeSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.DataSize != cfg.DataSizes[i] {
			t.Errorf("row %d data size = %d", i, r.DataSize)
		}
		if r.QuerySize != cfg.FixedQuerySize {
			t.Errorf("row %d query size = %v", i, r.QuerySize)
		}
		if r.ResultSize <= 0 {
			t.Errorf("row %d: no results", i)
		}
		if r.Traditional.Candidates < r.ResultSize {
			t.Errorf("row %d: trad candidates %v < result %v", i, r.Traditional.Candidates, r.ResultSize)
		}
		if r.Voronoi.Candidates < r.ResultSize {
			t.Errorf("row %d: vor candidates %v < result %v", i, r.Voronoi.Candidates, r.ResultSize)
		}
	}
	// Result sizes scale with data size (2000 -> 4000 doubles density).
	if rows[1].ResultSize < rows[0].ResultSize {
		t.Errorf("result size should grow with data size: %v then %v",
			rows[0].ResultSize, rows[1].ResultSize)
	}
	if progress.Len() == 0 {
		t.Error("no progress output")
	}
}

func TestRunQuerySizeSweep(t *testing.T) {
	rows, err := RunQuerySizeSweep(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Result sizes scale with query size.
	if rows[1].ResultSize <= rows[0].ResultSize {
		t.Errorf("result size should grow with query size: %v then %v",
			rows[0].ResultSize, rows[1].ResultSize)
	}
	for i, r := range rows {
		if r.DataSize != 3000 {
			t.Errorf("row %d data size = %d, want fixed 3000", i, r.DataSize)
		}
	}
}

func TestVoronoiBeatsTraditionalOnCandidates(t *testing.T) {
	// The reproduction's core claim, at harness level: aggregate candidate
	// savings are positive and substantial.
	cfg := smallConfig()
	cfg.DataSizes = []int{20000}
	cfg.Repeats = 10
	rows, err := RunDataSizeSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if s := r.CandidateSavings(); s < 0.2 {
		t.Errorf("candidate savings = %.1f%%, expected the paper's ~35-45%% band (wide tolerance)", s*100)
	}
	if r.Voronoi.Redundant >= r.Traditional.Redundant {
		t.Errorf("voronoi redundant %v >= traditional %v", r.Voronoi.Redundant, r.Traditional.Redundant)
	}
}

// TestStoreBackedSweepCountsIO: each method's page column counts the pages
// it reads from an empty pool. A page holds at most
// PageSize/(PayloadBytes+24) records — each carries its id and position
// beside the payload — so a method that loads k records per query reads at
// least k over that many pages. The pool here holds every page of the
// store, so a method whose query ran on the pages the other one left
// resident would read fewer.
func TestStoreBackedSweepCountsIO(t *testing.T) {
	cfg := smallConfig()
	cfg.Store = &core.StoreConfig{PageSize: 1024, PoolPages: 1024, PayloadBytes: 32}
	perPage := float64(cfg.Store.PageSize / (cfg.Store.PayloadBytes + 24))
	rows, err := RunDataSizeSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for name, m := range map[string]MethodResult{"Traditional": r.Traditional, "Voronoi": r.Voronoi} {
			if m.PageReads < m.Candidates/perPage || m.PageReads == 0 {
				t.Errorf("%d points: %s loads %.2f records and reads %.2f pages per query; a page holds at most %.0f records",
					r.DataSize, name, m.Candidates, m.PageReads, perPage)
			}
		}
	}
	if table := FormatTable(rows, false); !strings.Contains(table, pageColumns) {
		t.Errorf("a table over the store has no page-read columns:\n%s", table)
	}
}

// TestSweepsRefuseWhatTheirRowsCannotHold: a sweep returns an error for a
// repeat count below 1 or fewer than 3 vertices, before it builds a dataset
// (PaperConfig's first one holds 10⁵ points), rather than measure something
// its rows would be labelled as what was asked.
func TestSweepsRefuseWhatTheirRowsCannotHold(t *testing.T) {
	few := PaperConfig(5)
	few.Vertices = 2
	for name, cfg := range map[string]Config{"no repeats": PaperConfig(0), "two vertices": few} {
		for sweep, run := range map[string]func(Config) ([]Row, error){
			"data size":  RunDataSizeSweep,
			"query size": RunQuerySizeSweep,
		} {
			if rows, err := run(cfg); err == nil {
				t.Errorf("%s, %s sweep: %d rows and no error", name, sweep, len(rows))
			}
		}
	}
}

func TestPaperConfigShape(t *testing.T) {
	cfg := PaperConfig(1000)
	if len(cfg.DataSizes) != 10 || cfg.DataSizes[0] != 1e5 || cfg.DataSizes[9] != 1e6 {
		t.Errorf("data sizes = %v", cfg.DataSizes)
	}
	if len(cfg.QuerySizes) != 6 || cfg.QuerySizes[0] != 0.01 || cfg.QuerySizes[5] != 0.32 {
		t.Errorf("query sizes = %v", cfg.QuerySizes)
	}
	if cfg.Repeats != 1000 || cfg.Vertices != 10 || cfg.FixedQuerySize != 0.01 || cfg.FixedDataSize != 1e5 {
		t.Errorf("parameters = %+v", cfg)
	}
}

func TestFormatTable(t *testing.T) {
	rows, err := RunQuerySizeSweep(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	table := FormatTable(rows, true)
	if !strings.Contains(table, "Query size") || !strings.Contains(table, "%") {
		t.Errorf("table format unexpected:\n%s", table)
	}
	if got := strings.Count(table, "\n"); got != len(rows)+2 {
		t.Errorf("table has %d lines, want %d", got, len(rows)+2)
	}
	table2 := FormatTable(rows, false)
	if !strings.Contains(table2, "Data size") {
		t.Errorf("data-size table format unexpected:\n%s", table2)
	}
	if strings.Contains(table+table2, "pages") {
		t.Errorf("an in-memory table has page-read columns:\n%s", table)
	}
}

func TestFormatFigure(t *testing.T) {
	rows, err := RunQuerySizeSweep(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []FigureSeries{Fig4TimeVsDataSize, Fig5RedundantVsDataSize, Fig6TimeVsQuerySize, Fig7RedundantVsQuerySize} {
		out := FormatFigure(rows, f)
		if !strings.Contains(out, f.String()) {
			t.Errorf("figure header missing for %v:\n%s", f, out)
		}
		if strings.Count(out, "\n") != len(rows)+2 {
			t.Errorf("figure %v has wrong line count:\n%s", f, out)
		}
	}
	if got := FigureSeries(99).String(); got != "figure(99)" {
		t.Errorf("unknown figure String = %q", got)
	}
}

func TestMismatchesTrackedAndRareAtScale(t *testing.T) {
	// measure() compares the two methods' result ids on every repeat and
	// reports divergences (the published expansion rule is heuristic; see
	// README.md, "Expansion rules"). In a paper-like regime — enough points
	// that query areas hold hundreds of results — mismatches must be (near)
	// zero.
	cfg := smallConfig()
	cfg.DataSizes = []int{30000}
	cfg.FixedQuerySize = 0.01
	cfg.Repeats = 40
	rows, err := RunDataSizeSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Mismatches > 0 {
		t.Errorf("at paper-like density the published rule diverged on %d/%d repeats",
			rows[0].Mismatches, cfg.Repeats)
	}
}
