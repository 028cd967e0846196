// Command benchmark is the repository's benchmark: six closed-loop
// workloads against the public vaq API, every result checked against a
// brute-force oracle, end-to-end metrics taken with tracing off and
// per-layer metrics from a separate traced round plus direct probes of each
// layer's public functions. See README.md.
//
//	go run -C benchmark . -seed 20200420               # all six, writes out/result.json
//	go run -C benchmark . -workload mem-area -trace 0  # one workload, result line for the driver
//	go run -C benchmark . -compare A.json B.json
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// logOut receives progress; standard output carries only results.
var logOut io.Writer = os.Stderr

func main() {
	var (
		name    = flag.String("workload", "", "run this workload only and print the driver's result line (default: all six)")
		seed    = flag.Int64("seed", 20200420, "seed every input derives from")
		seconds = flag.Int("seconds", referenceSeconds, "length of the timed rounds; rounds are whole passes sized for this many seconds")
		trace   = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
		compare = flag.Bool("compare", false, "compare two result.json files given as arguments")
		outDir  = flag.String("out", "out", "directory for result.json and trace-<workload>.jsonl")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *compare, *outDir, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, compare bool, outDir string, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result.json files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1")
	}
	ctx := context.Background()
	in := genInputs(seed, fullScale)
	env := fingerprint(in)
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		plan := runPlan{timed: trace == 0, traced: trace == 1, seconds: seconds, outDir: outDir}
		res, err := runWorkload(ctx, w, in, plan, newProber(ctx, in))
		if err != nil {
			return err
		}
		return printDriverLine(os.Stdout, res, trace == 1)
	}
	return runAll(ctx, os.Stdout, in, env, seconds, outDir)
}

// environment is the fingerprint two results must share to be comparable.
type environment struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	CPU          string `json:"cpu"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"git_commit"`
	Seed         int64  `json:"seed"`
	InputsDigest string `json:"inputs_digest"`
}

func fingerprint(in *inputs) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", GoVersion: runtime.Version(), Commit: "unknown",
		Seed: in.seed, InputsDigest: in.digest,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// result is the content of result.json.
type result struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// runAll is the default mode: every workload, timed and traced, with the
// cross-checks the shared inputs make free.
func runAll(ctx context.Context, w io.Writer, in *inputs, env environment, seconds int, outDir string) error {
	out := &result{Env: env, Workloads: map[string]*workloadResult{}}
	pr := newProber(ctx, in)
	plan := runPlan{timed: true, traced: true, seconds: seconds, outDir: outDir}
	for i := range workloads {
		res, err := runWorkload(ctx, &workloads[i], in, plan, pr)
		if err != nil {
			return err
		}
		out.Workloads[workloads[i].name] = res
	}
	if err := crossCheck(out); err != nil {
		return err
	}
	printResult(w, out)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(logOut, "wrote", path)
	for name, res := range out.Workloads {
		if res.Failed != 0 {
			return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
		}
	}
	return nil
}

// crossCheck asserts what must hold between workloads that share data,
// pool and method. That remote-fanout and sharded-batch digest-equal the
// static oracle is already checked by their verify step.
func crossCheck(r *result) error {
	mem, store := r.Workloads["mem-area"], r.Workloads["store-cold"]
	if a, b := mem.EndToEnd["candidates_per_result"].Value, store.EndToEnd["candidates_per_result"].Value; a != b {
		return fmt.Errorf("candidates_per_result differs between mem-area (%v) and store-cold (%v)", a, b)
	}
	// The timed passes and the storage probe's steady-state pass issue the
	// same queries against the same pool, one through vaq and one through
	// core, so their page reads must agree exactly.
	if e, probe := store.EndToEnd["page_reads_per_query"].Value, store.PerLayer["page_reads_per_query"]; e != probe {
		return fmt.Errorf("page_reads_per_query is %v through the public engine and %v through core", e, probe)
	}
	for name, w := range r.Workloads {
		if v := w.PerLayer["remote.retries"] + w.PerLayer["remote.dropped"]; v != 0 {
			return fmt.Errorf("%s: remote probe saw %v retried or dropped requests", name, v)
		}
	}
	return nil
}

func printResult(w io.Writer, r *result) {
	e := r.Env
	fmt.Fprintf(w, "nproc=%d GOMAXPROCS=%d cpu=%q %s commit=%s seed=%d inputs_digest=%s\n",
		e.NProc, e.GOMAXPROCS, e.CPU, e.GoVersion, e.Commit, e.Seed, e.InputsDigest)
	for i := range workloads {
		name := workloads[i].name
		res := r.Workloads[name]
		if res == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s  (%d operations, %d failed)\n", name, res.Attempted, res.Failed)
		for _, d := range append(append([]metricDef(nil), endToEnd...), scoped...) {
			s, ok := res.EndToEnd[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-28s %14.4f %-6s min %.4f max %.4f over %d parts  (%d samples)\n",
				d.name, s.Value, s.Unit, s.Min, s.Max, s.Parts, s.Samples)
		}
		for _, k := range sortedKeys(res.PerLayer) {
			d := defOf(k)
			fmt.Fprintf(w, "  %-44s %14.4f %-6s moves %s\n", k, res.PerLayer[k], d.unit, d.moves)
		}
		for _, k := range sortedKeys(res.SelfUs) {
			fmt.Fprintf(w, "  self time of %-31s %14.4f us\n", k, res.SelfUs[k])
		}
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// driverLine is the contract's result object.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printDriverLine prints exactly the metrics BENCHMARK.json declares for
// the mode: the end-to-end ones, or the scoped and per-layer ones.
func printDriverLine(w io.Writer, res *workloadResult, traced bool) error {
	line := driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	if traced {
		for _, d := range traceMetrics() {
			v, ok := res.PerLayer[d.name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not measured", d.name)
			}
			line.Metrics[d.name] = driverValue{Value: v, Unit: d.unit}
		}
	} else {
		for _, d := range endToEnd {
			line.Metrics[d.name] = driverValue{Value: res.EndToEnd[d.name].Value, Unit: d.unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
