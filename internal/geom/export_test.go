package geom

import (
	"sync/atomic"
	"testing"
)

// GridAfter is the lazy-build threshold, for the external test package.
const GridAfter = gridAfter

// CountGridBuilds counts every grid build, by any region, until the test
// ends.
func CountGridBuilds(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	testHookGridBuild = func() { n.Add(1) }
	t.Cleanup(func() { testHookGridBuild = nil })
	return &n
}

// HasGrid reports whether pp has published its grid.
func (pp *PreparedPolygon) HasGrid() bool { return pp.grid.Load() != nil }
