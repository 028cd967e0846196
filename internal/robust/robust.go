// Package robust implements exact geometric predicates.
//
// The two predicates that decide planar topology — orientation of a point
// triple and the in-circle test — must never be wrong, or incremental
// Delaunay construction corrupts its own invariants. Plain float64
// evaluation is wrong exactly when it matters: when the determinant is close
// to zero.
//
// Each predicate is evaluated in two stages, following the structure of
// Shewchuk's adaptive predicates:
//
//  1. A fast float64 evaluation with a conservative forward error bound. If
//     the magnitude of the result exceeds the bound, its sign is trusted.
//  2. Otherwise the determinant is recomputed exactly with math/big.Rat.
//     float64 → Rat conversion is lossless, so the fallback is exact.
//
// For uniformly random inputs the fallback triggers almost never, so the
// amortized cost is a handful of multiplications per call.
package robust

import (
	"math"
	"math/big"
)

// Error-bound coefficients. Derived the same way as Shewchuk's: each is
// (k + c·epsilon)·epsilon for a small constant, rounded up generously. They
// only need to be conservative (too large merely causes a needless exact
// evaluation).
const (
	epsilon = 2.220446049250313e-16 // 2^-52

	ccwErrBound      = (3.0 + 16.0*epsilon) * epsilon
	inCircleErrBound = (10.0 + 96.0*epsilon) * epsilon

	// The relative bounds above assume no product underflows. One that
	// does lands within 2^-1075 of its exact value, however small that is.
	// Orient2D sends every triple whose products sum below ccwUnderflowFloor
	// to the exact stage: above it, a subnormal product sits beside a normal
	// one at least 2^21 times larger, so det is nowhere near zero. InCircle
	// adds an absolute term instead, scaled by the lifts: every underflowed
	// product feeds det through a factor no larger than their sum. Both
	// constants are normal: a subnormal operand would cost every call a
	// microcode assist on common x86 cores.
	ccwUnderflowFloor = 0x1p-1000
	underflowErr      = 0x1p-1020
)

// Orient2D returns the sign of the (exact) signed area of triangle
// (ax,ay)-(bx,by)-(cx,cy): +1 when the triple turns counterclockwise,
// -1 when clockwise, 0 when collinear.
func Orient2D(ax, ay, bx, by, cx, cy float64) int {
	detLeft := (ax - cx) * (by - cy)
	detRight := (ay - cy) * (bx - cx)
	det := detLeft - detRight

	var detSum float64
	if detLeft > 0 {
		if detRight < 0 {
			return 1
		}
		detSum = detLeft + detRight
	} else if detLeft < 0 {
		if detRight > 0 {
			return -1
		}
		detSum = -detLeft - detRight
	}
	if detSum < ccwUnderflowFloor {
		return orient2DTiny(ax, ay, bx, by, cx, cy, detLeft, detRight)
	}

	errBound := ccwErrBound * detSum
	if det >= errBound || -det >= errBound {
		return sign(det)
	}
	return orient2DExact(ax, ay, bx, by, cx, cy)
}

// orient2DTiny settles the triples Orient2D's filter leaves: a product is
// zero, or both are near the subnormal range, where a product rounds with an
// absolute error of up to 2^-1075 that the relative bound does not cover. A
// zero product with a zero factor is exact (a difference is zero only when
// its operands are equal), and every nonzero product has the sign of its
// exact value, so det = -detRight or detLeft decides unless the other
// product flushed to zero from nonzero factors. Everything else is exact.
func orient2DTiny(ax, ay, bx, by, cx, cy, detLeft, detRight float64) int {
	leftZero := detLeft == 0 && (ax == cx || by == cy)
	rightZero := detRight == 0 && (ay == cy || bx == cx)
	switch {
	case leftZero && (rightZero || detRight != 0), rightZero && detLeft != 0:
		return sign(detLeft - detRight)
	case detLeft != detLeft || detRight != detRight:
		return 0 // NaN: no sign to give, and big.Rat takes no NaN
	}
	return orient2DExact(ax, ay, bx, by, cx, cy)
}

// InCircle returns the sign of the in-circle determinant: +1 when (dx,dy)
// lies strictly inside the circumcircle of the counterclockwise triangle
// (ax,ay)-(bx,by)-(cx,cy), -1 when strictly outside, 0 when cocircular.
// If the triangle is clockwise the sign is flipped by the determinant
// itself, as usual.
func InCircle(ax, ay, bx, by, cx, cy, dx, dy float64) int {
	adx := ax - dx
	ady := ay - dy
	bdx := bx - dx
	bdy := by - dy
	cdx := cx - dx
	cdy := cy - dy

	bdxcdy := bdx * cdy
	cdxbdy := cdx * bdy
	alift := adx*adx + ady*ady

	cdxady := cdx * ady
	adxcdy := adx * cdy
	blift := bdx*bdx + bdy*bdy

	adxbdy := adx * bdy
	bdxady := bdx * ady
	clift := cdx*cdx + cdy*cdy

	det := alift*(bdxcdy-cdxbdy) + blift*(cdxady-adxcdy) + clift*(adxbdy-bdxady)

	permanent := (abs(bdxcdy)+abs(cdxbdy))*alift +
		(abs(cdxady)+abs(adxcdy))*blift +
		(abs(adxbdy)+abs(bdxady))*clift
	// Every cross product is bounded by half the sum of two lifts, so an
	// underflow anywhere on the way to det moves it by at most 2^-1075
	// times the lifts' sum, far inside the absolute term.
	errBound := inCircleErrBound*permanent + underflowErr*(alift+blift+clift+1)
	if det > errBound || -det > errBound {
		return sign(det)
	}
	return inCircleExact(ax, ay, bx, by, cx, cy, dx, dy)
}

func sign(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// rat converts a float64 to an exact rational. The conversion never loses
// information because every finite float64 is a dyadic rational.
func rat(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }

// orient2DExact evaluates the determinant exactly. A NaN or infinite
// coordinate has no exact value, and big.Rat takes none: the filter sends
// such a triple here only when its products cancel to NaN or turn NaN
// themselves, and it is reported collinear, as orient2DTiny reports a NaN
// product.
func orient2DExact(ax, ay, bx, by, cx, cy float64) int {
	for _, v := range [...]float64{ax, ay, bx, by, cx, cy} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
	}
	// det = (ax-cx)(by-cy) - (ay-cy)(bx-cx), evaluated exactly.
	acx := new(big.Rat).Sub(rat(ax), rat(cx))
	bcy := new(big.Rat).Sub(rat(by), rat(cy))
	acy := new(big.Rat).Sub(rat(ay), rat(cy))
	bcx := new(big.Rat).Sub(rat(bx), rat(cx))

	left := new(big.Rat).Mul(acx, bcy)
	right := new(big.Rat).Mul(acy, bcx)
	return left.Cmp(right)
}

func inCircleExact(ax, ay, bx, by, cx, cy, dx, dy float64) int {
	adx := new(big.Rat).Sub(rat(ax), rat(dx))
	ady := new(big.Rat).Sub(rat(ay), rat(dy))
	bdx := new(big.Rat).Sub(rat(bx), rat(dx))
	bdy := new(big.Rat).Sub(rat(by), rat(dy))
	cdx := new(big.Rat).Sub(rat(cx), rat(dx))
	cdy := new(big.Rat).Sub(rat(cy), rat(dy))

	mul := func(a, b *big.Rat) *big.Rat { return new(big.Rat).Mul(a, b) }
	sub := func(a, b *big.Rat) *big.Rat { return new(big.Rat).Sub(a, b) }
	add := func(a, b *big.Rat) *big.Rat { return new(big.Rat).Add(a, b) }

	alift := add(mul(adx, adx), mul(ady, ady))
	blift := add(mul(bdx, bdx), mul(bdy, bdy))
	clift := add(mul(cdx, cdx), mul(cdy, cdy))

	bcdet := sub(mul(bdx, cdy), mul(cdx, bdy))
	cadet := sub(mul(cdx, ady), mul(adx, cdy))
	abdet := sub(mul(adx, bdy), mul(bdx, ady))

	det := add(add(mul(alift, bcdet), mul(blift, cadet)), mul(clift, abdet))
	return det.Sign()
}
