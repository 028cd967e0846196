package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/voronoi"
	"repro/internal/workload"
)

// opaqueData forwards every DataAccess method and nothing else: behind it
// the engine finds no CoordSource, no AdjacencySource, no *MemoryData and
// no *DynamicData — no coordinate slices, no pinned points — so every query
// takes the interface path: Load, Neighbors and Position per id.
type opaqueData struct{ d DataAccess }

func (o opaqueData) NumIDs() int                                 { return o.d.NumIDs() }
func (o opaqueData) Position(id int64) geom.Point                { return o.d.Position(id) }
func (o opaqueData) Neighbors(id int64) []int32                  { return o.d.Neighbors(id) }
func (o opaqueData) Load(id int64) (geom.Point, error)           { return o.d.Load(id) }
func (o opaqueData) Each(fn func(id int64, pos geom.Point) bool) { o.d.Each(fn) }
func (o opaqueData) SeedHint(p geom.Point) int64                 { return o.d.SeedHint(p) }
func (o opaqueData) CellArena() *voronoi.CellArena               { return o.d.CellArena() }

// countingStore is a StoreData that counts its record loads. It keeps the
// resident coordinates and adjacency StoreData has and, not being a
// *MemoryData, the paged Load: the bare store engine's path exactly.
type countingStore struct {
	*StoreData
	loads int
}

func (c *countingStore) Load(id int64) (geom.Point, error) {
	c.loads++
	return c.StoreData.Load(id)
}

// TestResidentPathIsCostNeutral: reading coordinates, pinned points and
// adjacency in place, and records for free where they are resident, changes
// what a query costs, never what it decides. Every method returns the same
// ids in the same order with the same counters on MemoryData and StoreData,
// bare and behind a wrapper that hides everything but DataAccess, and —
// over its own ids and index — on a dynamic snapshot of the same points,
// bare and behind the wrapper; and a store-backed query calls Load exactly
// once per record it reports loaded.
func TestResidentPathIsCostNeutral(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := workload.UniformPoints(rng, 20000, unitBounds())
	mem, err := NewMemoryData(pts, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStoreData(pts, unitBounds(), StoreConfig{PageSize: 1024, PoolPages: 8, PayloadBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingStore{StoreData: store}
	idx := NewRTreeIndex(pts, 16)
	snap := dynamicOver(t, pts).Snapshot()
	// Each group's first layer is its reference, checked against brute force;
	// a dynamic snapshot has ids, an index and rings of its own.
	groups := [][]struct {
		name string
		eng  *Engine
	}{{
		{"memory", NewEngine(idx, mem)},
		{"memory, opaque", NewEngine(idx, opaqueData{mem})},
		{"store", NewEngine(idx, store)},
		{"store, opaque", NewEngine(idx, opaqueData{store})},
		{"store, counted", NewEngine(idx, counted)},
	}, {
		{"dynamic", snap.Engine()},
		{"dynamic, opaque", NewEngine(snap.eng.idx, opaqueData{snap.data})},
	}}

	holed := geom.MustPolygon([]geom.Point{geom.Pt(0.2, 0.2), geom.Pt(0.7, 0.2), geom.Pt(0.7, 0.7), geom.Pt(0.2, 0.7)})
	if err := holed.AddHole([]geom.Point{geom.Pt(0.3, 0.3), geom.Pt(0.6, 0.3), geom.Pt(0.6, 0.6), geom.Pt(0.3, 0.6)}); err != nil {
		t.Fatal(err)
	}
	regions := map[string]Region{
		"1 % polygon":    PolygonRegion(workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.01}, unitBounds())),
		"0.01 % polygon": PolygonRegion(workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.0001}, unitBounds())),
		"circle":         CircleRegion(geom.Circle{Center: geom.Pt(0.4, 0.6), R: 0.07}),
		"holed":          PolygonRegion(holed),
		"no sites":       PolygonRegion(geom.MustPolygon([]geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.5+1e-7, 0.5), geom.Pt(0.5, 0.5+1e-7)})),
	}
	ctx := context.Background()
	for name, region := range regions {
		for _, layers := range groups {
			oracle, _, err := query(layers[0].eng, BruteForce, region)
			if err != nil {
				t.Fatal(err)
			}
			if name == "no sites" && len(oracle) != 0 {
				t.Fatalf("%s, %s: brute force finds %d sites", layers[0].name, name, len(oracle))
			}
			for _, m := range []Method{Traditional, VoronoiBFS, VoronoiBFSStrict} {
				var wantIDs []int64
				var want Stats
				for i, l := range layers {
					counted.loads = 0
					ids, st, err := l.eng.QueryRegionSpec(ctx, region, QuerySpec{Method: m})
					if err != nil {
						t.Fatalf("%s, %s, %v: %v", l.name, name, m, err)
					}
					st.Duration = 0
					if i == 0 {
						wantIDs, want = ids, st
						if !slices.Equal(sortedIDs(ids), sortedIDs(oracle)) {
							t.Fatalf("%s, %s, %v: %d ids, brute force %d", l.name, name, m, len(ids), len(oracle))
						}
					} else if !slices.Equal(ids, wantIDs) || st != want {
						t.Errorf("%s, %s, %v: %d ids, %+v; %s: %d ids, %+v", l.name, name, m, len(ids), st, layers[0].name, len(wantIDs), want)
					}
					if l.name == "store, counted" && counted.loads != st.RecordsLoaded {
						t.Errorf("%s, %v: %d loads for %d records loaded", name, m, counted.loads, st.RecordsLoaded)
					}
				}
			}
		}
	}
}
