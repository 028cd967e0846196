package vaq_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	vaq "repro"
)

// TestEveryOutcomeIsObservedOnce is the conformance table of what surrounds
// a query rather than what it returns: on every flavor, for Query, QueryAll
// and Each, whether the call succeeds, fails on the caller's input or finds
// its context cancelled, WithStatsInto is written, a reused WithTraceInto
// trace is reset and finished, and the registry counts the call exactly
// once, under the right outcome.
func TestEveryOutcomeIsObservedOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := vaq.UniformPoints(rng, 1500, vaq.UnitSquare())
	good := vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.5, 0.5), 0.1))
	outside := vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.95, 0.5), 0.1)) // pokes out of the unit square
	const badMethod = vaq.Method(99)

	type flavor struct {
		name, label string
		q           vaq.Querier
		reg         *vaq.MetricsRegistry
		universe    bool // rejects regions outside its universe
	}
	var flavors []flavor
	add := func(name, label string, universe bool, build func(vaq.Option) (vaq.Querier, error)) {
		reg := vaq.NewMetricsRegistry()
		q, err := build(vaq.WithMetrics(reg))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		flavors = append(flavors, flavor{name, label, q, reg, universe})
	}
	dynamic := func(m vaq.Option) *vaq.DynamicEngine {
		d := vaq.NewDynamicEngine(vaq.UnitSquare(), m)
		for _, p := range pts {
			if _, _, err := d.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	add("static", "static", false, func(m vaq.Option) (vaq.Querier, error) {
		return vaq.NewEngine(pts, vaq.UnitSquare(), m)
	})
	add("store", "static", false, func(m vaq.Option) (vaq.Querier, error) {
		return vaq.NewEngine(pts, vaq.UnitSquare(), m, vaq.WithStore(vaq.StoreConfig{PageSize: 4096, PoolPages: 8}))
	})
	add("sharded", "sharded", false, func(m vaq.Option) (vaq.Querier, error) {
		return vaq.NewShardedEngine(pts, vaq.UnitSquare(), m, vaq.WithShards(4))
	})
	add("dynamic", "dynamic", true, func(m vaq.Option) (vaq.Querier, error) { return dynamic(m), nil })
	add("snapshot", "dynamic", true, func(m vaq.Option) (vaq.Querier, error) { return dynamic(m).Snapshot(), nil })
	add("remote", "remote", false, func(m vaq.Option) (vaq.Querier, error) {
		return startFixture(t, pts, 600).dial(t, m), nil
	})

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	type outcome struct {
		name    string
		ctx     context.Context
		regions []vaq.Region // Query and Each take the last
		method  vaq.Method
		counter string // the outcome counter the call must bump; "" for success
		is      error  // what the error must match; nil for success
	}
	outcomes := []outcome{
		{"ok", context.Background(), []vaq.Region{good, good, good}, vaq.VoronoiBFS, "", nil},
		{"unknown method", context.Background(), []vaq.Region{good, good}, badMethod, "vaq_query_errors_total", nil},
		{"outside universe", context.Background(), []vaq.Region{good, outside}, vaq.VoronoiBFS, "vaq_query_errors_total", vaq.ErrOutsideUniverse},
		{"cancelled", cancelled, []vaq.Region{good, good}, vaq.VoronoiBFS, "vaq_query_cancellations_total", context.Canceled},
	}

	for _, f := range flavors {
		for _, o := range outcomes {
			if o.is == vaq.ErrOutsideUniverse && !f.universe {
				continue
			}
			methodLabel := o.method.String()
			if o.method == badMethod {
				methodLabel = "other"
			}
			perMethod := func(base string) string {
				return fmt.Sprintf("%s{flavor=%q,method=%q}", base, f.label, methodLabel)
			}
			batches := fmt.Sprintf("vaq_batches_total{flavor=%q}", f.label)
			last := o.regions[len(o.regions)-1]

			ops := []struct {
				name    string
				queries uint64 // what the call adds to vaq_queries_total
				batches uint64
				call    func(opts ...vaq.QueryOpt) error
			}{
				{"Query", 1, 0, func(opts ...vaq.QueryOpt) error {
					_, err := f.q.Query(o.ctx, last, opts...)
					return err
				}},
				{"QueryAll", uint64(len(o.regions)), 1, func(opts ...vaq.QueryOpt) error {
					_, err := f.q.QueryAll(o.ctx, o.regions, opts...)
					return err
				}},
				{"Each", 1, 0, func(opts ...vaq.QueryOpt) error {
					return f.q.Each(o.ctx, last, func(int64, vaq.Point) bool { return true }, opts...)
				}},
			}
			for _, op := range ops {
				t.Run(f.name+"/"+op.name+"/"+o.name, func(t *testing.T) {
					// A trace and a stats value that still hold an earlier,
					// different query.
					var tr vaq.QueryTrace
					var st vaq.Stats
					if _, err := f.q.Query(context.Background(), good,
						vaq.UsingMethod(vaq.Traditional), vaq.WithTraceInto(&tr), vaq.WithStatsInto(&st)); err != nil {
						t.Fatal(err)
					}
					if st.Candidates == 0 || !strings.Contains(tr.String(), "method=traditional ") {
						t.Fatalf("setup query left stats %+v, %s", st, tr.String())
					}
					before := f.reg.Snapshot().Counters

					err := op.call(vaq.UsingMethod(o.method), vaq.WithTraceInto(&tr), vaq.WithStatsInto(&st))
					switch {
					case o.counter == "" && err != nil:
						t.Fatal(err)
					case o.counter != "" && err == nil:
						t.Fatal("no error")
					case o.is != nil && !errors.Is(err, o.is):
						t.Fatalf("err = %v, want %v", err, o.is)
					}

					if st.Method != o.method {
						t.Errorf("WithStatsInto not written: still holds method %v", st.Method)
					}
					if o.counter == "" && st.ResultSize == 0 {
						t.Errorf("WithStatsInto holds no results after a successful call: %+v", st)
					}
					if o.counter != "" && st.ResultSize != 0 {
						t.Errorf("WithStatsInto reports %d results for a failed call", st.ResultSize)
					}
					if s := tr.String(); !strings.Contains(s, "flavor="+f.label+" method="+o.method.String()+" ") {
						t.Errorf("trace not reset: %s", s)
					}
					if tr.Total() <= 0 {
						t.Errorf("trace not finished: %s", tr.String())
					}

					after := f.reg.Snapshot().Counters
					delta := func(name string) uint64 { return after[name] - before[name] }
					if got := delta(perMethod("vaq_queries_total")); got != op.queries {
						t.Errorf("vaq_queries_total moved by %d, want %d", got, op.queries)
					}
					if got := delta(batches); got != op.batches {
						t.Errorf("vaq_batches_total moved by %d, want %d", got, op.batches)
					}
					for _, c := range []string{"vaq_query_errors_total", "vaq_query_cancellations_total"} {
						want := uint64(0)
						if c == o.counter {
							want = 1
						}
						if got := delta(perMethod(c)); got != want {
							t.Errorf("%s moved by %d, want %d", c, got, want)
						}
					}
				})
			}
		}
	}
}
