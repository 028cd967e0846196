package vaq

import (
	"context"
	"iter"
)

// Results adapts Each to Go's range-over-func iteration: it returns a
// sequence of (id, position) pairs streamed as the query discovers them,
// plus an error function to check once the loop ends. Breaking out of the
// loop stops the query cleanly, exactly like yield returning false.
//
//	seq, errf := vaq.Results(ctx, eng, area)
//	for id, p := range seq {
//		process(id, p)
//	}
//	if err := errf(); err != nil { ... }
//
// The sequence is single-use — range over it once, then call errf; a
// second range re-runs the query from scratch (options included), which is
// rarely what you want. All Each semantics carry over: results arrive in
// discovery order (not ascending), and cancellation of ctx ends the
// sequence early with errf reporting ctx.Err(). To stop after n pairs,
// break out of the loop.
func Results(ctx context.Context, q Querier, region Region, opts ...QueryOpt) (iter.Seq2[int64, Point], func() error) {
	var err error
	seq := func(yield func(int64, Point) bool) {
		err = q.Each(ctx, region, yield, opts...)
	}
	return seq, func() error { return err }
}
