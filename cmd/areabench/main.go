// Command areabench regenerates the paper's evaluation — Table I, Table II
// and the data series behind Figures 4-7. Performance is measured
// elsewhere, by the repository benchmark (`go run -C benchmark .`).
//
// Examples:
//
//	areabench -exp table1 -repeats 100
//	areabench -exp table2 -repeats 1000
//	areabench -exp fig5
//	areabench -exp all -datasizes 100000,200000 -repeats 50
//	areabench -exp table2 -store -payload 64 -poolpages 256
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: table1|table2|fig4|fig5|fig6|fig7|all (the paper's tables and figures)")
		repeats    = flag.Int("repeats", 100, "repeats per configuration (paper: 1000)")
		seed       = flag.Int64("seed", 20200420, "random seed")
		vertices   = flag.Int("vertices", 10, "query polygon vertex count (paper: 10)")
		dataSizes  = flag.String("datasizes", "", "comma-separated data sizes for table1/fig4/fig5 (default: paper's 1E5..1E6)")
		querySizes = flag.String("querysizes", "", "comma-separated query sizes in percent for table2/fig6/fig7 (default: 1,2,4,8,16,32)")
		useStore   = flag.Bool("store", false, "back records with the paged store (adds IO accounting)")
		payload    = flag.Int("payload", 64, "payload bytes per record (with -store)")
		poolPages  = flag.Int("poolpages", 256, "buffer pool pages (with -store)")
		pageSize   = flag.Int("pagesize", 4096, "page size in bytes (with -store)")
		quiet      = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	// workload.RandomPolygon falls back to its defaults on a vertex count or
	// a query size it cannot draw; a table row labelled with what was asked
	// would then hold figures for something else, so refuse here.
	if *vertices < 3 {
		fatalf("bad -vertices: %d, a polygon has at least 3", *vertices)
	}
	// The sweeps refuse this (and -vertices below 3) too, but only after
	// the sweep header is printed.
	if *repeats < 1 {
		fatalf("bad -repeats: %d, a mean needs at least 1", *repeats)
	}
	if *payload < 0 {
		fatalf("bad -payload: %d bytes per record, want at least 0", *payload)
	}
	cfg := bench.PaperConfig(*repeats)
	cfg.Seed = *seed
	cfg.Vertices = *vertices
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	if *useStore {
		cfg.Store = &core.StoreConfig{
			PageSize:     *pageSize,
			PoolPages:    *poolPages,
			PoolShards:   1, // one LRU: the sweeps query on one goroutine
			PayloadBytes: *payload,
		}
	}
	if *dataSizes != "" {
		sizes, err := parseInts(*dataSizes)
		if err != nil {
			fatalf("bad -datasizes: %v", err)
		}
		for _, n := range sizes {
			if n < 1 {
				fatalf("bad -datasizes: %d, a point count is at least 1", n)
			}
		}
		cfg.DataSizes = sizes
	}
	if *querySizes != "" {
		pcts, err := parseFloats(*querySizes)
		if err != nil {
			fatalf("bad -querysizes: %v", err)
		}
		cfg.QuerySizes = cfg.QuerySizes[:0]
		for _, p := range pcts {
			if !(p > 0 && p <= 100) {
				fatalf("bad -querysizes: %v%% is outside (0, 100]", p)
			}
			cfg.QuerySizes = append(cfg.QuerySizes, p/100)
		}
	}

	needData := map[string]bool{"table1": true, "fig4": true, "fig5": true, "all": true}
	needQuery := map[string]bool{"table2": true, "fig6": true, "fig7": true, "all": true}
	if !needData[*exp] && !needQuery[*exp] {
		fatalf("unknown experiment %q", *exp)
	}

	var dataRows, queryRows []bench.Row
	var err error
	if needData[*exp] {
		fmt.Fprintf(os.Stderr, "# data-size sweep: %v points, query size %.0f%%, %d repeats\n",
			cfg.DataSizes, cfg.FixedQuerySize*100, cfg.Repeats)
		dataRows, err = bench.RunDataSizeSweep(cfg)
		if err != nil {
			fatalf("data-size sweep: %v", err)
		}
	}
	if needQuery[*exp] {
		fmt.Fprintf(os.Stderr, "# query-size sweep: %d points, query sizes %v, %d repeats\n",
			cfg.FixedDataSize, cfg.QuerySizes, cfg.Repeats)
		queryRows, err = bench.RunQuerySizeSweep(cfg)
		if err != nil {
			fatalf("query-size sweep: %v", err)
		}
	}

	switch *exp {
	case "table1":
		fmt.Println("## Table I — R-tree based vs Voronoi based area query, varying data size")
		fmt.Print(bench.FormatTable(dataRows, false))
	case "table2":
		fmt.Println("## Table II — R-tree based vs Voronoi based area query, varying query size")
		fmt.Print(bench.FormatTable(queryRows, true))
	case "fig4":
		fmt.Print(bench.FormatFigure(dataRows, bench.Fig4TimeVsDataSize))
	case "fig5":
		fmt.Print(bench.FormatFigure(dataRows, bench.Fig5RedundantVsDataSize))
	case "fig6":
		fmt.Print(bench.FormatFigure(queryRows, bench.Fig6TimeVsQuerySize))
	case "fig7":
		fmt.Print(bench.FormatFigure(queryRows, bench.Fig7RedundantVsQuerySize))
	case "all":
		fmt.Println("## Table I — varying data size (query size fixed at 1%)")
		fmt.Print(bench.FormatTable(dataRows, false))
		fmt.Println()
		fmt.Print(bench.FormatFigure(dataRows, bench.Fig4TimeVsDataSize))
		fmt.Println()
		fmt.Print(bench.FormatFigure(dataRows, bench.Fig5RedundantVsDataSize))
		fmt.Println()
		fmt.Println("## Table II — varying query size (data size fixed)")
		fmt.Print(bench.FormatTable(queryRows, true))
		fmt.Println()
		fmt.Print(bench.FormatFigure(queryRows, bench.Fig6TimeVsQuerySize))
		fmt.Println()
		fmt.Print(bench.FormatFigure(queryRows, bench.Fig7RedundantVsQuerySize))
	}

	reportMismatches(append(dataRows, queryRows...))
}

func reportMismatches(rows []bench.Row) {
	total := 0
	for _, r := range rows {
		total += r.Mismatches
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr,
			"# WARNING: the published expansion rule diverged from the baseline on %d repeats (see README.md, \"Expansion rules\")\n",
			total)
	}
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "areabench: "+format+"\n", args...)
	os.Exit(1)
}
