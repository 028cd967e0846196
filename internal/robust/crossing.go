package robust

import (
	"math"
	"math/big"
)

// Crossing is where a directed segment a→b meets the bisector of a site c
// and another site s, in homogeneous form: the segment's point a + t(b−a)
// is as near to s as to c at t = N/E, where
//
//	N = (s−c)·(s+c−2a) = |s−a|² − |c−a|²,
//	E = 2(s−c)·(b−a),
//
// and, for every t, |s−x(t)|² − |c−x(t)|² = N − tE. E > 0 means the
// segment heads toward s's side. A Crossing holds float64 evaluations of N
// and E, each with a bound on its absolute error, so that a walk comparing
// one crossing against several evaluates it once: E by Frame.Crossing, N
// by the first comparison that reads it (a walk asks most crossings only
// which way the segment heads). The exact stage of CrossingOrder
// recomputes both from s.
type Crossing struct {
	n, e       float64
	nErr, eErr float64
	sx, sy     float64
	// hasN reports that n and nErr are evaluated.
	hasN bool
	// fixed marks the constants below, whose N and E are exact.
	fixed bool
}

// The constant crossings, for comparing a crossing against a fixed
// parameter: the segment's start (t = 0: CrossingOrder(p, AtStart) is the
// sign of N_p), its end (t = 1: the sign of N_p − E_p, which is N at b) and
// infinity (t = ∞: CrossingOrder(p, AtInfinity) is the sign of −E_p).
var (
	AtStart    = Crossing{n: 0, e: 1, hasN: true, fixed: true}
	AtEnd      = Crossing{n: 1, e: 1, hasN: true, fixed: true}
	AtInfinity = Crossing{n: 1, e: 0, hasN: true, fixed: true}
)

// Frame is a directed segment a→b and the site c whose bisectors with
// other sites it crosses. It counts the comparisons its float filter could
// not decide (Exact).
type Frame struct {
	ax, ay, bx, by, cx, cy float64
	exact                  int
}

// NewFrame returns the frame of segment (ax,ay)→(bx,by) and site (cx,cy).
func NewFrame(ax, ay, bx, by, cx, cy float64) Frame {
	return Frame{ax: ax, ay: ay, bx: bx, by: by, cx: cx, cy: cy}
}

// Exact returns how many of f's comparisons went to the big.Rat stage.
func (f *Frame) Exact() int { return f.exact }

// Crossing evaluates, into x, where f's segment crosses the bisector of
// f's site and the site (sx,sy): E now, N when a comparison first reads it.
//
// Error bounds: each difference or sum rounds to within half an ulp, so a
// product term of N is off by at most ≈ 3.6ε·|u|(|s+c|+2|a|) and one of E
// by ≈ 3ε·|u||w| (u = s−c, w = b−a); the constants 8 and 16 cover that
// with room to spare. An underflowed product adds at most 2^-1074, far
// inside underflowErr.
//
//vaq:noalloc
func (f *Frame) Crossing(x *Crossing, sx, sy float64) {
	ux, uy := sx-f.cx, sy-f.cy
	wx, wy := f.bx-f.ax, f.by-f.ay
	x.e = 2 * (ux*wx + uy*wy)
	x.eErr = 16*epsilon*(math.Abs(ux)*math.Abs(wx)+math.Abs(uy)*math.Abs(wy)) + underflowErr
	x.sx, x.sy, x.hasN, x.fixed = sx, sy, false, false
}

// evalN evaluates x's N and its error bound.
//
//vaq:noalloc
func (f *Frame) evalN(x *Crossing) {
	ux, uy := x.sx-f.cx, x.sy-f.cy
	tx, ty := x.sx+f.cx, x.sy+f.cy
	vx, vy := tx-2*f.ax, ty-2*f.ay
	x.n = ux*vx + uy*vy
	x.nErr = 8*epsilon*(math.Abs(ux)*(math.Abs(tx)+2*math.Abs(f.ax))+math.Abs(uy)*(math.Abs(ty)+2*math.Abs(f.ay))) + underflowErr
	x.hasN = true
}

// Heading returns the sign of x's E, exactly: +1 when the segment heads
// into the site's side of the bisector, −1 when away, 0 when it runs
// parallel to it. It is CrossingOrder against AtInfinity, negated, with the
// filter's common case inline.
//
//vaq:noalloc
func (f *Frame) Heading(x *Crossing) int {
	if x.e > x.eErr {
		return 1
	}
	if -x.e > x.eErr {
		return -1
	}
	return f.headingExact(x)
}

// headingExact is Heading's undecided case, kept out of line so that
// Heading inlines.
//
//go:noinline
func (f *Frame) headingExact(x *Crossing) int { return -f.CrossingOrder(x, &AtInfinity) }

// CrossingOrder returns the sign of N_p·E_q − N_q·E_p, evaluated exactly,
// for two crossings of f (or the constants AtStart, AtEnd, AtInfinity).
// When E_p and E_q are both positive it is the sign of t_p − t_q: which
// bisector the segment crosses first. For a site crossing p and any q with
// E_q > 0 it is zero exactly when the segment's point at t_q is as near to
// p's site as to f's.
//
// Filter: with |N̂−N| ≤ n and |Ê−E| ≤ e for each side, the products' error
// is at most n_p(|Ê_q|+e_q) + |N̂_p|e_q + the same with p and q swapped,
// plus the rounding of the two products and their difference, plus the
// absolute term for an underflowed product; the whole bound is padded for
// its own rounding. NaN or ±Inf anywhere (an overflowed product) fails the
// filter and goes to the exact stage.
//
//vaq:noalloc
func (f *Frame) CrossingOrder(p, q *Crossing) int {
	if !p.hasN {
		f.evalN(p)
	}
	if !q.hasN {
		f.evalN(q)
	}
	left, right := p.n*q.e, q.n*p.e
	det := left - right
	errBound := (p.nErr*(math.Abs(q.e)+q.eErr)+math.Abs(p.n)*q.eErr+
		q.nErr*(math.Abs(p.e)+p.eErr)+math.Abs(q.n)*p.eErr+
		2*epsilon*(math.Abs(left)+math.Abs(right)))*(1+16*epsilon) + underflowErr
	if det > errBound || -det > errBound {
		if det > 0 {
			return 1
		}
		return -1
	}
	f.exact++
	return f.crossingOrderExact(p, q)
}

func (f *Frame) crossingOrderExact(p, q *Crossing) int {
	np, ep := f.crossingExact(p)
	nq, eq := f.crossingExact(q)
	left := new(big.Rat).Mul(np, eq)
	right := new(big.Rat).Mul(nq, ep)
	return left.Cmp(right)
}

// crossingExact returns N and E of x as exact rationals.
func (f *Frame) crossingExact(x *Crossing) (n, e *big.Rat) {
	if x.fixed {
		return rat(x.n), rat(x.e)
	}
	ax, ay, cx, cy := rat(f.ax), rat(f.ay), rat(f.cx), rat(f.cy)
	ux := new(big.Rat).Sub(rat(x.sx), cx)
	uy := new(big.Rat).Sub(rat(x.sy), cy)
	two := big.NewRat(2, 1)
	vx := new(big.Rat).Sub(new(big.Rat).Add(rat(x.sx), cx), new(big.Rat).Mul(two, ax))
	vy := new(big.Rat).Sub(new(big.Rat).Add(rat(x.sy), cy), new(big.Rat).Mul(two, ay))
	wx := new(big.Rat).Sub(rat(f.bx), ax)
	wy := new(big.Rat).Sub(rat(f.by), ay)
	n = new(big.Rat).Add(new(big.Rat).Mul(ux, vx), new(big.Rat).Mul(uy, vy))
	e = new(big.Rat).Add(new(big.Rat).Mul(ux, wx), new(big.Rat).Mul(uy, wy))
	return n, e.Mul(e, two)
}
