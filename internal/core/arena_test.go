package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/voronoi"
	"repro/internal/workload"
)

// arenaFixtures are the point sets the arena tests run over: the random ones
// and the degenerate geometry internal/voronoi pins its own builder on —
// collinear sites (every cell a slab), a cocircular grid (every Delaunay
// quad a tie) and sites on the universe's boundary.
func arenaFixtures() map[string][]geom.Point {
	collinear := make([]geom.Point, 40)
	for i := range collinear {
		collinear[i] = geom.Pt(float64(i+1)/41, 0.5)
	}
	var grid []geom.Point
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			grid = append(grid, geom.Pt(float64(i)/12+1.0/24, float64(j)/12+1.0/24))
		}
	}
	var hugging []geom.Point
	for i := 0; i <= 10; i++ {
		t := float64(i) / 10
		hugging = append(hugging, geom.Pt(t, 0), geom.Pt(t, 1))
		if i > 0 && i < 10 {
			hugging = append(hugging, geom.Pt(0, t), geom.Pt(1, t))
		}
	}
	hugging = append(hugging, geom.Pt(0.5, 0.5), geom.Pt(0.25, 0.7))
	return map[string][]geom.Point{
		"uniform":          workload.UniformPoints(rand.New(rand.NewSource(42)), 1500, unitBounds()),
		"clustered":        workload.ClusteredPoints(rand.New(rand.NewSource(7)), 1500, 8, 0.01, unitBounds()),
		"collinear":        collinear,
		"cocircular grid":  grid,
		"boundary-hugging": hugging,
	}
}

// TestLazyArenaEqualsEagerBuild pins the arena MemoryData derives on first
// use — from its own coordinates and CSR adjacency — to the arena
// voronoi.BuildCellArena packs straight from the triangulation, bit for bit:
// same rings, same boxes, same bytes.
func TestLazyArenaEqualsEagerBuild(t *testing.T) {
	for name, pts := range arenaFixtures() {
		t.Run(name, func(t *testing.T) {
			data, err := NewMemoryData(pts, unitBounds())
			if err != nil {
				t.Fatal(err)
			}
			tri, err := delaunay.Build(pts)
			if err != nil {
				t.Fatal(err)
			}
			want := voronoi.BuildCellArena(voronoi.FromTriangulation(tri, unitBounds()))
			got := data.CellArena()
			if got.NumCells() != want.NumCells() || got.Bytes() != want.Bytes() {
				t.Fatalf("lazy arena: %d cells in %d bytes, eager build: %d in %d",
					got.NumCells(), got.Bytes(), want.NumCells(), want.Bytes())
			}
			area := 0.0
			for i := 0; i < want.NumCells(); i++ {
				g, w := got.Ring(i), want.Ring(i)
				if g.Len() != w.Len() {
					t.Fatalf("cell %d: %d vertices, eager build has %d", i, g.Len(), w.Len())
				}
				for j := 0; j < w.Len(); j++ {
					if g.At(j) != w.At(j) {
						t.Fatalf("cell %d vertex %d: %v, eager build has %v", i, j, g.At(j), w.At(j))
					}
				}
				if got.CellBox(i) != want.CellBox(i) && !(got.CellBox(i).IsEmpty() && want.CellBox(i).IsEmpty()) {
					t.Fatalf("cell %d: box %v, eager build has %v", i, got.CellBox(i), want.CellBox(i))
				}
				area += got.CellArea(i)
			}
			if math.Abs(area-1) > 1e-9 {
				t.Errorf("cells cover %.12f of the unit square", area)
			}
		})
	}
}

// TestLazyArenaBuiltOnceUnderConcurrentFirstUse races the two callers that
// can be first to need the cells — a strict query and a direct CellArena
// read (what vaq.Engine.CellArea does) — from several goroutines on one
// fresh engine: every one of them must see the same arena, and the strict
// queries the oracle's answer. CI repeats it under the race detector.
func TestLazyArenaBuiltOnceUnderConcurrentFirstUse(t *testing.T) {
	pts := workload.UniformPoints(rand.New(rand.NewSource(3)), 3000, unitBounds())
	region := CircleRegion(geom.NewCircle(geom.Pt(0.4, 0.6), 0.15))
	for name, build := range map[string]func() (*MemoryData, *Engine){
		"memory": func() (*MemoryData, *Engine) {
			data, err := NewMemoryData(pts, unitBounds())
			if err != nil {
				t.Fatal(err)
			}
			return data, NewEngine(NewRTreeIndex(pts, 16), data)
		},
		"dynamic snapshot": func() (*MemoryData, *Engine) {
			d := NewDynamicEngine(unitBounds())
			for _, p := range pts {
				if _, _, err := d.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			s := d.Snapshot()
			return s.data, s.Engine()
		},
	} {
		t.Run(name, func(t *testing.T) {
			data, eng := build()
			want, _, err := query(eng, BruteForce, region)
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 8
			arenas := make([]*voronoi.CellArena, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if g%2 == 0 {
						got, _, err := eng.QueryRegionSpec(context.Background(), region, QuerySpec{Method: VoronoiBFSStrict})
						if err != nil || !equalIDs(sortedIDs(got), sortedIDs(want)) {
							t.Errorf("goroutine %d: strict query returned %d ids (err %v), oracle %d", g, len(got), err, len(want))
						}
					}
					arenas[g] = data.CellArena()
				}()
			}
			wg.Wait()
			for g, a := range arenas {
				if a == nil || a != arenas[0] {
					t.Fatalf("goroutine %d saw arena %p, goroutine 0 saw %p: built more than once", g, a, arenas[0])
				}
			}
		})
	}
}

// TestLazyArenaNotBuiltWithoutAStrictQuery pins what the laziness is for: an
// engine that runs every method but the strict one never clips a cell.
func TestLazyArenaNotBuiltWithoutAStrictQuery(t *testing.T) {
	pts := workload.UniformPoints(rand.New(rand.NewSource(9)), 2000, unitBounds())
	data, err := NewMemoryData(pts, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(NewRTreeIndex(pts, 16), data)
	region := CircleRegion(geom.NewCircle(geom.Pt(0.5, 0.5), 0.2))
	for _, m := range []Method{VoronoiBFS, Traditional, BruteForce} {
		if _, _, err := query(eng, m, region); err != nil {
			t.Fatal(err)
		}
	}
	if data.arena.cells != nil {
		t.Fatal("a run without a strict query built the cell arena")
	}
	if _, _, err := query(eng, VoronoiBFSStrict, region); err != nil {
		t.Fatal(err)
	}
	if data.arena.cells == nil {
		t.Fatal("a strict query left the cell arena unbuilt")
	}
}
