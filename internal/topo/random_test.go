package topo

import (
	"math"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"dcfguard/internal/frame"
	"dcfguard/internal/phys"
	"dcfguard/internal/rng"
)

// randomQuadratic is the all-pairs reference for Random: every node
// scans every other node for in-range candidates and for the first
// strict nearest one. It consumes the source exactly as Random must.
func randomQuadratic(n int, width, height, maxLink float64, nMis int, src *rng.Source) *Topology {
	t := &Topology{Positions: make([]phys.Point, n)}
	for i := range t.Positions {
		t.Positions[i] = phys.Point{
			X: src.Float64() * width,
			Y: src.Float64() * height,
		}
	}
	receivers := make(map[frame.NodeID]bool)
	for i := 0; i < n; i++ {
		id := frame.NodeID(i)
		var candidates []frame.NodeID
		nearest := frame.NodeID(-1)
		nearestDist := math.Inf(1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := t.Positions[i].Distance(t.Positions[j])
			if d <= maxLink {
				candidates = append(candidates, frame.NodeID(j))
			}
			if d < nearestDist {
				nearestDist = d
				nearest = frame.NodeID(j)
			}
		}
		dst := nearest
		if len(candidates) > 0 {
			dst = candidates[src.Intn(len(candidates))]
		}
		t.Flows = append(t.Flows, Flow{Src: id, Dst: dst})
		t.Measured = append(t.Measured, id)
		receivers[dst] = true
	}
	for id := range receivers {
		t.Receivers = append(t.Receivers, id)
	}
	sort.Slice(t.Receivers, func(i, j int) bool { return t.Receivers[i] < t.Receivers[j] })
	for _, p := range src.Perm(n)[:nMis] {
		t.Misbehaving = append(t.Misbehaving, frame.NodeID(p))
	}
	sort.Slice(t.Misbehaving, func(i, j int) bool { return t.Misbehaving[i] < t.Misbehaving[j] })
	return t
}

// TestRandomMatchesQuadraticReference is the exactness quickcheck for
// the grid-indexed Random: across node counts, arena shapes (the
// paper's Figure-9 arena, the scaled corridor, a dense small arena, a
// line, all points coincident), non-positive link ranges and many
// seeds, it must build a topology deeply equal to the all-pairs
// reference — same positions, same neighbor draws, same nearest-node
// fallbacks and tie breaks, same misbehavers.
func TestRandomMatchesQuadraticReference(t *testing.T) {
	sizes := []int{2, 3, 4, 7, 16, 40, 101, 250, 1000}
	seeds := 12
	if testing.Short() {
		sizes = sizes[:7]
		seeds = 3
	}
	type geometry struct {
		name                   string
		width, height, maxLink func(n int) float64
	}
	fixed := func(v float64) func(int) float64 { return func(int) float64 { return v } }
	geometries := []geometry{
		{"paper", fixed(1500), fixed(700), fixed(200)},
		{"corridor", func(n int) float64 { return 150 * float64(n) }, fixed(700), fixed(200)},
		{"dense", fixed(300), fixed(300), fixed(200)},
		{"line", func(n int) float64 { return 100 * float64(n) }, fixed(0), fixed(150)},
		{"zero-link", fixed(1500), fixed(700), fixed(0)},
		{"negative-link", fixed(1500), fixed(700), fixed(-1)},
		{"coincident", fixed(0), fixed(0), fixed(-1)},
		{"coincident-zero-link", fixed(0), fixed(0), fixed(0)},
		{"infinite-link", fixed(1500), fixed(700), fixed(math.Inf(1))},
	}
	cases := 0
	for _, geo := range geometries {
		for _, n := range sizes {
			for s := 1; s <= seeds; s++ {
				seed := uint64(s)*1_000_003 + uint64(n)
				w, h, link := geo.width(n), geo.height(n), geo.maxLink(n)
				nMis := n / 8
				got := Random(n, w, h, link, nMis, rng.New(seed))
				want := randomQuadratic(n, w, h, link, nMis, rng.New(seed))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d seed=%d: grid topology differs from the all-pairs reference\ngrid flows %v\nwant flows %v",
						geo.name, n, seed, got.Flows, want.Flows)
				}
				cases++
			}
		}
	}
	t.Logf("%d cases", cases)
}

// BenchmarkRandomTopo times Random in the experiment package's scaled
// corridor (150 m of width per node, 700 m tall, 200 m links, one
// misbehaver in eight), the geometry of the large sharded runs. With
// the grid the 4000-node build costs about 10× the 400-node one.
func BenchmarkRandomTopo(b *testing.B) {
	for _, n := range []int{400, 4000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Random(n, 150*float64(n), 700, 200, n/8, rng.New(uint64(i)))
			}
		})
	}
}
