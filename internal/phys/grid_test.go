package phys

import (
	"math"
	"slices"
	"testing"

	"dcfguard/internal/rng"
)

// scanNearest is the linear reference for Grid.Nearest: the first
// strict minimum over ascending indices.
func scanNearest(pts []Point, p Point, skip int) int {
	best, bestID := math.Inf(1), -1
	for j, q := range pts {
		if j == skip {
			continue
		}
		if d := p.Distance(q); d < best {
			best, bestID = d, j
		}
	}
	return bestID
}

// TestGridMatchesScan checks both queries against a linear scan on
// lattice points with many duplicates and exact distance ties, for
// radii from zero to beyond the extent and for query points outside
// the indexed set: AppendNear must return every index within the
// radius exactly once, and Nearest the scan's answer.
func TestGridMatchesScan(t *testing.T) {
	src := rng.New(9)
	for trial := 0; trial < 300; trial++ {
		n := 1 + src.Intn(200)
		side := 1 + src.Intn(40)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: float64(src.Intn(side)) * 10, Y: float64(src.Intn(side/4+1)) * 10}
		}
		radius := float64(src.Intn(6)) * 7.5
		g := NewGrid(pts, radius)
		queries := append([]Point{{X: -55, Y: 3}, {X: 1e6, Y: -1e6}}, pts...)
		for qi, p := range queries {
			skip := qi - 2 // the query's own index, or -1/-2 for outsiders
			got := g.AppendNear(nil, p)
			slices.Sort(got)
			if len(slices.Compact(slices.Clone(got))) != len(got) {
				t.Fatalf("trial %d: AppendNear(%v) repeats an index: %v", trial, p, got)
			}
			for j, q := range pts {
				if p.Distance(q) <= radius {
					if _, ok := slices.BinarySearch(got, int32(j)); !ok {
						t.Fatalf("trial %d (radius %v): point %d at %v is within radius of %v but not returned",
							trial, radius, j, q, p)
					}
				}
			}
			if got, want := g.Nearest(p, skip), scanNearest(pts, p, skip); got != want {
				t.Fatalf("trial %d: Nearest(%v, skip %d) = %d, linear scan %d", trial, p, skip, got, want)
			}
		}
	}
}

// TestGridCellCountBounded checks a radius tiny against the extent does
// not allocate a cell per radius-sized square.
func TestGridCellCountBounded(t *testing.T) {
	pts := []Point{{0, 0}, {1e9, 1e9}, {5e8, 1}}
	g := NewGrid(pts, 1e-3)
	if cells := g.cols * g.rows; cells > 4*len(pts)+16 {
		t.Fatalf("%d cells for %d points", cells, len(pts))
	}
	if g.Nearest(pts[0], 0) != 2 {
		t.Fatalf("Nearest(%v) = %d, want 2", pts[0], g.Nearest(pts[0], 0))
	}
}
