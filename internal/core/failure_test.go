package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

// failingData wraps a DataAccess and fails Load for one poisoned id,
// simulating a torn page / unreadable record.
type failingData struct {
	DataAccess
	poisoned int64
}

var errPoisoned = errors.New("injected load failure")

func (f *failingData) Load(id int64) (geom.Point, error) {
	if id == f.poisoned {
		return geom.Point{}, errPoisoned
	}
	return f.DataAccess.Load(id)
}

func TestLoadFailureSurfacesWithContext(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := workload.UniformPoints(rng, 2000, unitBounds())
	data, err := NewMemoryData(pts, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	area := workload.RandomPolygon(rng, workload.PolygonConfig{QuerySize: 0.1}, unitBounds())

	// Poison a point that is certainly a candidate: any result point.
	idx := NewRTreeIndex(pts, 16)
	okEng := NewEngine(idx, data)
	ids, _, err := query(okEng, BruteForce, PolygonRegion(area))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Skip("query found nothing; polygon landed in a gap")
	}
	poisoned := ids[len(ids)/2]

	eng := NewEngine(idx, &failingData{DataAccess: data, poisoned: poisoned})
	for _, m := range []Method{Traditional, VoronoiBFS, VoronoiBFSStrict} {
		ids, _, err := query(eng, m, PolygonRegion(area))
		if !errors.Is(err, errPoisoned) {
			t.Errorf("%v: err = %v, want the injected failure", m, err)
		}
		if err != nil && !strings.Contains(err.Error(), "loading candidate") {
			t.Errorf("%v: error lacks context: %v", m, err)
		}
		// All query paths share one error contract: a failed query returns
		// no (partial) result slice.
		if ids != nil {
			t.Errorf("%v: returned %d partial results alongside the error", m, len(ids))
		}
	}
}

func TestLoadFailureOutsideQueryAreaHarmless(t *testing.T) {
	// Poison a record far from the query: neither method should touch it.
	rng := rand.New(rand.NewSource(2))
	pts := workload.UniformPoints(rng, 2000, unitBounds())
	// Corner query area, poison the farthest point from the corner.
	area := geom.MustPolygon([]geom.Point{
		geom.Pt(0.01, 0.01), geom.Pt(0.1, 0.02), geom.Pt(0.08, 0.09),
	})
	far := int64(0)
	for i, p := range pts {
		if p.Dist2(geom.Pt(0, 0)) > pts[far].Dist2(geom.Pt(0, 0)) {
			far = int64(i)
		}
	}
	data, err := NewMemoryData(pts, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(NewRTreeIndex(pts, 16), &failingData{DataAccess: data, poisoned: far})
	for _, m := range []Method{Traditional, VoronoiBFS, VoronoiBFSStrict} {
		if _, _, err := query(eng, m, PolygonRegion(area)); err != nil {
			t.Errorf("%v: query touching only the corner failed: %v", m, err)
		}
	}
}
