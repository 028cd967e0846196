package vaq

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
)

// TestDynamicEngineConcurrentInsertQuery is the epoch-snapshot soak: one
// writer streams inserts into a DynamicEngine while reader goroutines
// exercise every query method concurrently. Each reader pins a snapshot
// and demands byte-identical agreement with a brute-force oracle evaluated
// on that same pinned epoch. Run under -race in CI.
func TestDynamicEngineConcurrentInsertQuery(t *testing.T) {
	const (
		totalInserts = 4000
		readers      = 4
	)
	eng := NewDynamicEngine(UnitSquare(), WithParallelism(2))

	// Seed a few points so the first snapshots are non-empty.
	seedRng := rand.New(rand.NewSource(41))
	for i := 0; i < 100; i++ {
		if _, _, err := eng.Insert(Pt(seedRng.Float64(), seedRng.Float64())); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg         sync.WaitGroup
		writerDone atomic.Bool
		queriesRun atomic.Int64
		epochsSeen sync.Map // epoch -> struct{}; proves readers spanned epochs

		errMu   sync.Mutex
		soakErr error
	)
	recordError := func(err error) {
		errMu.Lock()
		if soakErr == nil {
			soakErr = err
		}
		errMu.Unlock()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return soakErr != nil
	}

	// Writer: stream the remaining inserts. Halfway through it pauses
	// until enough reader rounds complete that at least one provably
	// pinned the paused epoch (at most `readers` rounds were already
	// in flight when the pause began) — so insert/query interleaving is
	// guaranteed even on a single-CPU scheduler that would otherwise run
	// the writer to completion before any reader starts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		for i := 0; i < totalInserts; i++ {
			if i == totalInserts/2 {
				base := queriesRun.Load()
				for queriesRun.Load() < base+readers+1 && !failed() {
					time.Sleep(time.Millisecond)
				}
			}
			if _, _, err := eng.Insert(Pt(seedRng.Float64(), seedRng.Float64())); err != nil {
				recordError(err)
				return
			}
		}
	}()

	// Readers: pin snapshots and compare every method against the oracle
	// captured at the same epoch. Each reader always completes at least
	// one round (the writer-done check sits at the loop bottom).
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				snap := eng.Snapshot()
				epochsSeen.Store(snap.Epoch(), struct{}{})
				area := RandomQueryPolygon(rng, 8, 0.05, UnitSquare())
				oracle, _, err := queryWith(snap, BruteForce, area)
				if err != nil {
					recordError(err)
					return
				}
				want := sorted(oracle)

				for _, m := range []Method{Traditional, VoronoiBFS, VoronoiBFSStrict} {
					got, _, err := queryWith(snap, m, area)
					if err != nil {
						recordError(err)
						return
					}
					if !slices.Equal(sorted(got), want) {
						recordError(fmt.Errorf("epoch %d %v: %d results, oracle %d",
							snap.Epoch(), m, len(got), len(oracle)))
						return
					}
				}

				// Count, on the same pinned epoch.
				if cnt, _, err := countOf(snap, VoronoiBFS, area); err != nil || cnt != len(oracle) {
					recordError(fmt.Errorf("epoch %d Count = %d (err %v), oracle %d",
						snap.Epoch(), cnt, err, len(oracle)))
					return
				}

				// A parallel batch shares one epoch: the same area twice must
				// answer identically, and match the snapshot's oracle when
				// the batch is taken from the same pinned view.
				batch, _, err := queryBatch(snap, VoronoiBFS, []Polygon{area, area})
				if err != nil {
					recordError(err)
					return
				}
				if !slices.Equal(sorted(batch[0]), want) || !slices.Equal(sorted(batch[1]), want) {
					recordError(fmt.Errorf("epoch %d batch diverged from pinned oracle", snap.Epoch()))
					return
				}

				// The engine-level entry points run concurrently with Insert
				// too; their epoch is pinned internally, so verify an
				// invariant that holds at any epoch: every streamed result
				// lies inside the area.
				outside := int64(-1)
				err = eng.Each(context.Background(), PolygonRegion(area), func(id int64, p Point) bool {
					if !area.ContainsPoint(p) {
						outside = id
						return false
					}
					return true
				}, UsingMethod(VoronoiBFS))
				if err != nil {
					recordError(err)
					return
				}
				if outside >= 0 {
					recordError(fmt.Errorf("live query result %d outside area", outside))
					return
				}
				if _, _, err := queryBatch(eng, VoronoiBFS, []Polygon{area}); err != nil {
					recordError(err)
					return
				}
				queriesRun.Add(1)
				if writerDone.Load() || failed() {
					return
				}
			}
		}(int64(100 + r))
	}

	wg.Wait()
	if soakErr != nil {
		t.Fatal(soakErr)
	}
	if eng.Len() != 100+totalInserts {
		t.Fatalf("Len = %d, want %d", eng.Len(), 100+totalInserts)
	}
	if queriesRun.Load() == 0 {
		t.Fatal("no reader completed a full verification round")
	}
	// One more pinned round on the completed stream: with the mid-stream
	// pause above this guarantees at least two distinct epochs were
	// verified, whatever the scheduler did.
	final := eng.Snapshot()
	epochsSeen.Store(final.Epoch(), struct{}{})
	area := MustPolygon([]Point{Pt(0.2, 0.2), Pt(0.8, 0.3), Pt(0.5, 0.8)})
	oracle, _, err := queryWith(final, BruteForce, area)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := queryWith(final, VoronoiBFS, area)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sorted(got), sorted(oracle)) {
		t.Fatalf("final epoch %d: voronoi diverged from oracle", final.Epoch())
	}
	distinct := 0
	epochsSeen.Range(func(_, _ interface{}) bool { distinct++; return true })
	if distinct < 2 {
		t.Fatalf("readers pinned only %d distinct epochs; insert/query interleaving not exercised", distinct)
	}
	t.Logf("soak: %d verification rounds across %d distinct epochs", queriesRun.Load(), distinct)
}

// TestDynamicSnapshotSharedBetweenWrites pins Snapshot's "same published
// view at no cost": between writes every pinner — sequential or concurrent —
// gets one *Snapshot, and a write moves the next pin to a new one, one epoch
// later, leaving the old view as it was.
func TestDynamicSnapshotSharedBetweenWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	eng := NewDynamicEngine(UnitSquare())
	insert := func() {
		if _, _, err := eng.Insert(Pt(rng.Float64(), rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		insert()
	}
	first := eng.Snapshot()
	if again := eng.Snapshot(); again != first {
		t.Fatal("two Snapshot calls between writes returned distinct views")
	}
	insert()
	second := eng.Snapshot()
	if second == first || second.Epoch() != first.Epoch()+1 {
		t.Fatalf("Snapshot after an Insert: same view %v, epoch %d after %d", second == first, second.Epoch(), first.Epoch())
	}
	if first.Epoch() != 50 || first.Len() != 50 {
		t.Fatalf("pinned view moved to epoch %d, %d points", first.Epoch(), first.Len())
	}

	// Concurrent pinners of one epoch share one view too.
	for round := 0; round < 20; round++ {
		insert()
		pins := make([]*Snapshot, 8)
		var wg sync.WaitGroup
		for i := range pins {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pins[i] = eng.Snapshot()
			}(i)
		}
		wg.Wait()
		for i, s := range pins {
			if s != pins[0] || s.Epoch() != eng.Epoch() {
				t.Fatalf("round %d: pinner %d got view %p at epoch %d, pinner 0 %p, engine at epoch %d",
					round, i, s, s.Epoch(), pins[0], eng.Epoch())
			}
		}
	}

	// Pinners racing a writer: whatever view each gets is whole, and never
	// older than the one it got before.
	var wg sync.WaitGroup
	var writerDone atomic.Bool
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for done := false; !done; {
				done = writerDone.Load()
				s := eng.Snapshot()
				if s.Epoch() < last || uint64(s.Len()) != s.Epoch() {
					t.Errorf("pinned epoch %d with %d points after epoch %d", s.Epoch(), s.Len(), last)
					return
				}
				last = s.Epoch()
			}
			if last != eng.Epoch() {
				t.Errorf("last pin at epoch %d, engine at %d", last, eng.Epoch())
			}
		}()
	}
	for i := 0; i < 300; i++ {
		insert()
	}
	writerDone.Store(true)
	wg.Wait()
}

func TestDynamicOutsideUniverseSentinel(t *testing.T) {
	eng := NewDynamicEngine(UnitSquare())
	if _, _, err := eng.Insert(Pt(5, 5)); !errors.Is(err, ErrOutsideUniverse) {
		t.Errorf("Insert outside universe: err = %v, want ErrOutsideUniverse", err)
	}
	if _, _, err := eng.Insert(Pt(0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	tooBig := MustPolygon([]Point{Pt(-1, -1), Pt(2, -1), Pt(0.5, 2)})
	if _, _, err := queryWith(eng, VoronoiBFS, tooBig); !errors.Is(err, ErrOutsideUniverse) {
		t.Errorf("Query exceeding universe: err = %v, want ErrOutsideUniverse", err)
	}
	if _, _, err := queryBatch(eng, VoronoiBFS, []Polygon{tooBig}); !errors.Is(err, ErrOutsideUniverse) {
		t.Errorf("QueryBatch exceeding universe: err = %v, want ErrOutsideUniverse", err)
	}
	if _, _, err := queryCircle(eng, VoronoiBFS, NewCircle(Pt(0.5, 0.5), 2)); !errors.Is(err, ErrOutsideUniverse) {
		t.Errorf("QueryCircle exceeding universe: err = %v, want ErrOutsideUniverse", err)
	}
}

// TestDynamicEmptyEngineErrNoData: an engine holding no point answers
// ErrNoData — over a real universe, and over the empty rectangle, which
// refuses every insert and admits every finite region.
func TestDynamicEmptyEngineErrNoData(t *testing.T) {
	area := MustPolygon([]Point{Pt(0.1, 0.1), Pt(0.5, 0.1), Pt(0.3, 0.5)})
	for _, universe := range []Rect{UnitSquare(), geom.EmptyRect()} {
		eng := NewDynamicEngine(universe)
		if _, _, err := queryWith(eng, VoronoiBFS, area); !errors.Is(err, ErrNoData) {
			t.Errorf("%v: Query on empty: err = %v, want ErrNoData", universe, err)
		}
		if _, _, err := queryBatch(eng, VoronoiBFS, []Polygon{area}); !errors.Is(err, ErrNoData) {
			t.Errorf("%v: QueryBatch on empty: err = %v, want ErrNoData", universe, err)
		}
	}
}

// TestDynamicDuplicateOfEarlySite repeats the first insert after thousands
// of others, once as -0 where it was +0: the walk finds the site already
// there, so the repeat answers its id, not inserted, Len stays, and the next
// epoch answers the whole universe as brute force does.
func TestDynamicDuplicateOfEarlySite(t *testing.T) {
	eng := NewDynamicEngine(UnitSquare())
	first, _, err := eng.Insert(Pt(0, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range UniformPoints(rand.New(rand.NewSource(59)), 5000, UnitSquare()) {
		if _, _, err := eng.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	n := eng.Len()
	id, inserted, err := eng.Insert(Pt(math.Copysign(0, -1), 0.25))
	if err != nil || inserted || id != first {
		t.Fatalf("repeat: id=%d inserted=%v err=%v, want %d false", id, inserted, err, first)
	}
	if eng.Len() != n {
		t.Fatalf("Len = %d after the repeat, want %d", eng.Len(), n)
	}
	everything := MustPolygon([]Point{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)})
	want, _, err := queryWith(eng, BruteForce, everything)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := queryWith(eng, VoronoiBFS, everything)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(want)
	if slices.Sort(got); len(want) != n || !slices.Equal(got, want) {
		t.Fatalf("whole universe: %d results, brute force %d, Len %d", len(got), len(want), n)
	}
}

// TestDynamicEngineParityWithStatic builds the same point set statically
// and dynamically and demands identical answers for every shared method.
func TestDynamicEngineParityWithStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := UniformPoints(rng, 1500, UnitSquare())
	static, err := NewEngine(pts, UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	dyn := NewDynamicEngine(UnitSquare())
	// Dynamic site ids start after the triangulation's fence sites, so
	// compare by position rather than raw id.
	staticPos, dynPos := make(map[int64]Point, len(pts)), make(map[int64]Point, len(pts))
	toPos := func(pos map[int64]Point, ids []int64) []Point {
		out := make([]Point, len(ids))
		for i, id := range ids {
			p, ok := pos[id]
			if !ok {
				t.Fatalf("result id %d has no point", id)
			}
			out[i] = p
		}
		sort.Slice(out, func(a, b int) bool {
			if out[a].X != out[b].X {
				return out[a].X < out[b].X
			}
			return out[a].Y < out[b].Y
		})
		return out
	}
	for i, p := range pts {
		id, _, err := dyn.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		staticPos[int64(i)], dynPos[id] = p, p
	}
	for trial := 0; trial < 10; trial++ {
		area := RandomQueryPolygon(rng, 10, 0.04, UnitSquare())
		s, _, err := queryWith(static, VoronoiBFS, area)
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := queryWith(dyn, VoronoiBFS, area)
		if err != nil {
			t.Fatal(err)
		}
		sp, dp := toPos(staticPos, s), toPos(dynPos, d)
		if len(sp) != len(dp) {
			t.Fatalf("trial %d: static %d results, dynamic %d", trial, len(sp), len(dp))
		}
		for i := range sp {
			if sp[i] != dp[i] {
				t.Fatalf("trial %d: result sets differ at %d: %v vs %v", trial, i, sp[i], dp[i])
			}
		}
		// Circle and count parity.
		c := NewCircle(Pt(0.3+0.04*float64(trial), 0.5), 0.08)
		sc, _, err := queryCircle(static, VoronoiBFS, c)
		if err != nil {
			t.Fatal(err)
		}
		dc, _, err := queryCircle(dyn, VoronoiBFS, c)
		if err != nil {
			t.Fatal(err)
		}
		if len(sc) != len(dc) {
			t.Fatalf("trial %d circle: static %d, dynamic %d", trial, len(sc), len(dc))
		}
		scnt, _, err := countOf(static, Traditional, area)
		if err != nil {
			t.Fatal(err)
		}
		dcnt, _, err := countOf(dyn, Traditional, area)
		if err != nil {
			t.Fatal(err)
		}
		if scnt != dcnt {
			t.Fatalf("trial %d count: static %d, dynamic %d", trial, scnt, dcnt)
		}
	}
}
