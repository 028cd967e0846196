package vaq

import "context"

// Test helpers: one call that runs a polygon, circle, count or batch query
// with a given method on any Querier against a background context and
// returns the result together with its Stats. The suites assert on
// (ids, stats, err) triples in some sixty places; these keep each of them
// a one-liner instead of an options list plus a Stats variable.

func queryWith(q Querier, m Method, area Polygon) ([]int64, Stats, error) {
	var st Stats
	ids, err := q.Query(context.Background(), PolygonRegion(area),
		UsingMethod(m), WithStatsInto(&st))
	return ids, st, err
}

func queryCircle(q Querier, m Method, c Circle) ([]int64, Stats, error) {
	var st Stats
	ids, err := q.Query(context.Background(), CircleRegion(c),
		UsingMethod(m), WithStatsInto(&st))
	return ids, st, err
}

func countOf(q Querier, m Method, area Polygon) (int, Stats, error) {
	var st Stats
	_, err := q.Query(context.Background(), PolygonRegion(area),
		UsingMethod(m), CountOnly(), WithStatsInto(&st))
	if err != nil {
		return 0, st, err
	}
	return st.ResultSize, st, nil
}

func queryBatch(q Querier, m Method, areas []Polygon) ([][]int64, Stats, error) {
	return queryRegions(q, m, Polygons(areas))
}

func queryRegions(q Querier, m Method, regions []Region) ([][]int64, Stats, error) {
	var st Stats
	out, err := q.QueryAll(context.Background(), regions,
		UsingMethod(m), WithStatsInto(&st))
	return out, st, err
}
