package phys

import "math"

// Grid is a uniform spatial index over a fixed set of points, used for
// fixed-radius neighbour queries: every point within the requested
// radius of a query point lies in the 3×3 cell block around it, so a
// query costs O(points nearby) instead of O(n). It stores point indices
// only (positions stay with the caller) in compressed rows: the cells
// are numbered row-major, and cell c holds idx[start[c]:start[c+1]] in
// ascending index order, so the three cells of one block row form one
// contiguous run.
type Grid struct {
	pts        []Point
	minX, minY float64
	cell       float64
	cols, rows int
	start      []int32
	idx        []int32
}

// cellMargin widens the cell side slightly past the requested radius so
// that rounding in the cell-coordinate division can never push a point
// exactly one radius away two cells over.
const cellMargin = 1 + 1e-9

// NewGrid indexes pts for queries of radius up to radius. The cell side
// is at least radius; it grows (in doublings) past that only to keep
// the cell count within a small multiple of len(pts), so a radius tiny
// against the points' extent cannot blow up the table. An infinite
// radius or extent puts every point in one cell: queries stay correct
// and degrade to a scan.
func NewGrid(pts []Point, radius float64) *Grid {
	g := &Grid{pts: pts, cols: 1, rows: 1}
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	g.minX, g.minY = math.Inf(1), math.Inf(1)
	for _, p := range pts {
		g.minX, maxX = min(g.minX, p.X), max(maxX, p.X)
		g.minY, maxY = min(g.minY, p.Y), max(maxY, p.Y)
	}
	w, h := maxX-g.minX, maxY-g.minY
	maxCells := 4*len(pts) + 16
	g.cell = radius * cellMargin
	if !(g.cell > 0) {
		// Only coincident points are within a zero radius of each
		// other, and they share a cell of any positive side.
		g.cell = max(w, h) / float64(maxCells)
	}
	if g.cell > 0 && finite(g.cell) && finite(w) && finite(h) {
		for {
			cols, rows := math.Floor(w/g.cell)+1, math.Floor(h/g.cell)+1
			if cols*rows <= float64(maxCells) {
				g.cols, g.rows = int(cols), int(rows)
				break
			}
			g.cell *= 2
		}
	}
	// Counting sort by cell; walking pts in order keeps each cell's
	// indices ascending.
	g.start = make([]int32, g.cols*g.rows+1)
	for _, p := range pts {
		g.start[g.cellOf(p)+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	fill := make([]int32, g.cols*g.rows)
	copy(fill, g.start)
	g.idx = make([]int32, len(pts))
	for i, p := range pts {
		c := g.cellOf(p)
		g.idx[fill[c]] = int32(i)
		fill[c]++
	}
	return g
}

// coords returns the cell column and row of p, clamped to the grid.
func (g *Grid) coords(p Point) (cx, cy int) {
	if g.cols == 1 && g.rows == 1 {
		return 0, 0
	}
	return clampCell((p.X-g.minX)/g.cell, g.cols), clampCell((p.Y-g.minY)/g.cell, g.rows)
}

// clampCell converts a cell coordinate to an index in [0, n), clamping
// in floating point so a far-away (or NaN) query cannot overflow int.
func clampCell(f float64, n int) int {
	switch {
	case !(f >= 0):
		return 0
	case f >= float64(n-1):
		return n - 1
	}
	return int(f)
}

func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

func (g *Grid) cellOf(p Point) int {
	cx, cy := g.coords(p)
	return cy*g.cols + cx
}

// span returns the indices in cells x0..x1 of row y, clipped to the
// grid (empty when the row or the whole run lies outside it).
func (g *Grid) span(y, x0, x1 int) []int32 {
	if y < 0 || y >= g.rows {
		return nil
	}
	x0, x1 = max(x0, 0), min(x1, g.cols-1)
	if x0 > x1 {
		return nil
	}
	return g.idx[g.start[y*g.cols+x0]:g.start[y*g.cols+x1+1]]
}

// AppendNear appends to dst the index of every point in the 3×3 cell
// block around p — a superset of the points within the grid's radius of
// p, p's own index included — and returns the extended slice. The order
// is fixed (block rows bottom to top, ascending index within a cell)
// but not globally sorted.
func (g *Grid) AppendNear(dst []int32, p Point) []int32 {
	cx, cy := g.coords(p)
	for y := cy - 1; y <= cy+1; y++ {
		dst = append(dst, g.span(y, cx-1, cx+1)...)
	}
	return dst
}

// Nearest returns the index of the point closest to p other than skip,
// ties going to the smallest index, or -1 when no other point has a
// distance below +Inf. Distances are p.Distance(pts[j]), so the answer
// is exactly that of a linear scan that keeps the first strict minimum.
// It searches square rings of cells outward from p's cell and stops
// once no unvisited cell can hold a point as close as the best so far.
func (g *Grid) Nearest(p Point, skip int) int {
	cx, cy := g.coords(p)
	best, bestID := math.Inf(1), -1
	consider := func(js []int32) {
		for _, j32 := range js {
			j := int(j32)
			if j == skip {
				continue
			}
			d := p.Distance(g.pts[j])
			if d < best || (d <= best && j < bestID) {
				best, bestID = d, j
			}
		}
	}
	reach := max(cx, g.cols-1-cx, cy, g.rows-1-cy)
	for r := 0; r <= reach; r++ {
		// Every unvisited point lies in ring r or beyond, more than
		// (r−1)·cell from p; one more cell of slack absorbs rounding in
		// the cell coordinates.
		if bestID >= 0 && best < float64(r-2)*g.cell {
			break
		}
		if r == 0 {
			consider(g.span(cy, cx, cx))
			continue
		}
		consider(g.span(cy-r, cx-r, cx+r))
		consider(g.span(cy+r, cx-r, cx+r))
		for y := max(cy-r+1, 0); y <= min(cy+r-1, g.rows-1); y++ {
			consider(g.span(y, cx-r, cx-r))
			consider(g.span(y, cx+r, cx+r))
		}
	}
	return bestID
}
