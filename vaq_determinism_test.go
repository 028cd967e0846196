package vaq_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	vaq "repro"
	"repro/internal/wire"
)

// answer is everything one round of queries hands its caller: the ids of
// Query and QueryAll, the Count, the Each yield sequence in order, and the
// Stats each call wrote.
type answer struct {
	ids    [][]int64
	counts []int
	yields [][]yielded // per Each call, in yield order
	stats  []vaq.Stats
}

// yielded is one call of an Each yield.
type yielded struct {
	id int64
	p  vaq.Point
}

// askAll runs Query, QueryAll, Count and Each over regions on q, each with
// WithStatsInto, for every method.
func askAll(t *testing.T, q vaq.Querier, regions []vaq.Region) answer {
	t.Helper()
	ctx := context.Background()
	var a answer
	for _, m := range []vaq.Method{vaq.VoronoiBFS, vaq.VoronoiBFSStrict, vaq.Traditional, vaq.BruteForce} {
		for _, region := range regions {
			var st vaq.Stats
			ids, err := q.Query(ctx, region, vaq.UsingMethod(m), vaq.WithStatsInto(&st))
			if err != nil {
				t.Fatalf("Query %v: %v", m, err)
			}
			a.ids, a.stats = append(a.ids, ids), append(a.stats, st)

			n, err := vaq.Count(ctx, q, region, vaq.UsingMethod(m), vaq.WithStatsInto(&st))
			if err != nil {
				t.Fatalf("Count %v: %v", m, err)
			}
			a.counts, a.stats = append(a.counts, n), append(a.stats, st)

			var seq []yielded
			err = q.Each(ctx, region, func(id int64, p vaq.Point) bool {
				seq = append(seq, yielded{id, p})
				return true
			}, vaq.UsingMethod(m), vaq.WithStatsInto(&st))
			if err != nil {
				t.Fatalf("Each %v: %v", m, err)
			}
			a.yields, a.stats = append(a.yields, seq), append(a.stats, st)
		}
		var st vaq.Stats
		out, err := q.QueryAll(ctx, regions, vaq.UsingMethod(m), vaq.WithStatsInto(&st))
		if err != nil {
			t.Fatalf("QueryAll %v: %v", m, err)
		}
		a.ids, a.stats = append(a.ids, out...), append(a.stats, st)
	}
	return a
}

// TestAnswersAreDeterministic pins that a query's answer depends only on
// its inputs: on every flavor, the same Query, QueryAll, Count and Each
// asked twice return the same ids, the same yield sequence and the same
// Stats, and a served query's response body repeats byte for byte.
func TestAnswersAreDeterministic(t *testing.T) {
	pts := vaq.UniformPoints(rand.New(rand.NewSource(38)), 4000, vaq.UnitSquare())
	rng := rand.New(rand.NewSource(39))
	regions := []vaq.Region{
		vaq.PolygonRegion(vaq.RandomQueryPolygon(rng, 10, 0.05, vaq.UnitSquare())),
		vaq.PolygonRegion(vaq.RandomQueryPolygon(rng, 10, 0.3, vaq.UnitSquare())),
		vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.4, 0.6), 0.15)),
	}

	static, err := vaq.NewEngine(pts, vaq.UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	store, err := vaq.NewEngine(pts, vaq.UnitSquare(), vaq.WithStore(vaq.StoreConfig{PageSize: 1024, PoolPages: 8}))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := vaq.NewShardedEngine(pts, vaq.UnitSquare(), vaq.WithShards(8), vaq.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	dyn := vaq.NewDynamicEngine(vaq.UnitSquare())
	for _, p := range pts {
		if _, _, err := dyn.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	fx := startFixture(t, pts, len(pts)/2)
	flavors := []struct {
		name string
		q    vaq.Querier
	}{
		{"static", static},
		{"store", store},
		{"sharded", sharded},
		{"snapshot", dyn.Snapshot()},
		{"remote", fx.dial(t)},
	}
	for _, f := range flavors {
		first, second := askAll(t, f.q, regions), askAll(t, f.q, regions)
		if !slices.EqualFunc(first.ids, second.ids, slices.Equal[[]int64]) {
			t.Errorf("%s: ids differ between two runs", f.name)
		}
		if !slices.Equal(first.counts, second.counts) {
			t.Errorf("%s: counts %v, then %v", f.name, first.counts, second.counts)
		}
		if !slices.EqualFunc(first.yields, second.yields, slices.Equal[[]yielded]) {
			t.Errorf("%s: Each yield sequences differ between two runs", f.name)
		}
		for i := range first.stats {
			if first.stats[i] != second.stats[i] {
				t.Errorf("%s: call %d wrote %+v, then %+v", f.name, i, first.stats[i], second.stats[i])
			}
		}
	}

	// Over the wire: two identical request bodies, byte-identical
	// response bodies, on every area route. A /v1/queryall body is a
	// request line per region.
	opts := wire.Options{Method: vaq.VoronoiBFSStrict.String()}
	var single, batch []byte
	for i, region := range regions {
		wr, err := wire.EncodeRegion(region)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(wire.QueryRequest{Region: wr, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			single = line
		}
		batch = append(append(batch, line...), '\n')
	}
	for path, body := range map[string][]byte{"/v1/query": single, "/v1/queryall": batch, "/v1/each": single} {
		var got [2][]byte
		for i := range got {
			resp, err := http.Post(fx.urls[0]+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			got[i], err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s: status %d, %v: %s", path, resp.StatusCode, err, got[i])
			}
		}
		if !bytes.Equal(got[0], got[1]) {
			t.Errorf("POST %s: two identical requests got different bodies:\n%s\n%s", path, got[0], got[1])
		}
	}
}
