package storage_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestEngineSurfacesCorruptPage drives the query engine over a store with
// one flipped coordinate bit. A region that has the record among its
// candidates must fail on every method — an error that wraps ErrCorrupt and
// names the load, no partial ids — and a region whose candidates sit on
// other pages must still be answered exactly.
func TestEngineSurfacesCorruptPage(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1, 1)
	rng := rand.New(rand.NewSource(28))
	pts := workload.UniformPoints(rng, 3000, bounds)
	// Ids ascend with x, so a page is a narrow vertical strip and a region
	// far away in x shares no page with it.
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	data, err := core.NewStoreData(pts, bounds, core.StoreConfig{PageSize: 1024, PoolPages: 8, PayloadBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(core.NewRTreeIndex(pts, 16), data)
	ctx := context.Background()
	methods := []core.Method{core.Traditional, core.VoronoiBFS, core.VoronoiBFSStrict}

	near := core.PolygonRegion(geom.MustPolygon([]geom.Point{
		geom.Pt(0.70, 0.30), geom.Pt(0.80, 0.32), geom.Pt(0.78, 0.45), geom.Pt(0.71, 0.43),
	}))
	far := core.PolygonRegion(geom.MustPolygon([]geom.Point{
		geom.Pt(0.10, 0.50), geom.Pt(0.20, 0.52), geom.Pt(0.18, 0.65), geom.Pt(0.11, 0.63),
	}))
	answer := func(region core.Region, m core.Method) ([]int64, error) {
		ids, _, err := eng.QueryRegionSpec(ctx, region, core.QuerySpec{Method: m})
		slices.Sort(ids)
		return ids, err
	}
	nearIDs, err := answer(near, core.BruteForce)
	if err != nil || len(nearIDs) == 0 {
		t.Fatalf("sound store, near region: %d ids, %v", len(nearIDs), err)
	}
	farIDs, err := answer(far, core.BruteForce)
	if err != nil || len(farIDs) == 0 {
		t.Fatalf("sound store, far region: %d ids, %v", len(farIDs), err)
	}

	victim := nearIDs[len(nearIDs)/2]
	st := data.Store()
	st.FlipXBit52(victim)
	st.DropCache()

	for _, m := range methods {
		ids, err := answer(near, m)
		if !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("%v over the corrupt page: err = %v, want one wrapping ErrCorrupt", m, err)
		}
		if err != nil && !strings.Contains(err.Error(), "loading candidate") {
			t.Errorf("%v: error lacks context: %v", m, err)
		}
		if ids != nil {
			t.Errorf("%v: %d partial ids alongside the error", m, len(ids))
		}
		ids, err = answer(far, m)
		if err != nil || !slices.Equal(ids, farIDs) {
			t.Errorf("%v away from the corrupt page: %d ids, %v; want the %d of the sound store", m, len(ids), err, len(farIDs))
		}
	}
}
