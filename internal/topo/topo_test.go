package topo

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func mustGrid(t *testing.T, side int) *Graph {
	t.Helper()
	g, err := DefaultGrid(side)
	if err != nil {
		t.Fatalf("DefaultGrid(%d): %v", side, err)
	}
	return g
}

func TestGridNodeAndEdgeCounts(t *testing.T) {
	for _, side := range []int{2, 3, 11, 15, 21} {
		g := mustGrid(t, side)
		if got, want := g.Len(), side*side; got != want {
			t.Errorf("grid %d: Len() = %d, want %d", side, got, want)
		}
		// A side×side 4-neighbour grid has 2*side*(side-1) edges.
		if got, want := g.EdgeCount(), 2*side*(side-1); got != want {
			t.Errorf("grid %d: EdgeCount() = %d, want %d", side, got, want)
		}
	}
}

func TestGridCardinalNeighboursOnly(t *testing.T) {
	g := mustGrid(t, 5)
	centre := GridIndex(5, 2, 2)
	neigh := g.Neighbors(centre)
	want := []NodeID{GridIndex(5, 1, 2), GridIndex(5, 2, 1), GridIndex(5, 2, 3), GridIndex(5, 3, 2)}
	if len(neigh) != len(want) {
		t.Fatalf("centre neighbours = %v, want %v", neigh, want)
	}
	for i, n := range want {
		if neigh[i] != n {
			t.Errorf("neighbour[%d] = %d, want %d", i, neigh[i], n)
		}
	}
	// Diagonal must not be connected at range == spacing.
	if g.HasEdge(centre, GridIndex(5, 1, 1)) {
		t.Error("diagonal neighbour within range; want cardinal connectivity only")
	}
}

func TestGridCornerDegree(t *testing.T) {
	g := mustGrid(t, 11)
	if got := len(g.Neighbors(GridTopLeft())); got != 2 {
		t.Errorf("corner degree = %d, want 2", got)
	}
	if got := len(g.Neighbors(GridCentre(11))); got != 4 {
		t.Errorf("centre degree = %d, want 4", got)
	}
}

// gridCoord is the reference inverse of GridIndex: the (row, col) of a
// node in a side×side grid.
func gridCoord(side int, n NodeID) (row, col int) {
	return int(n) / side, int(n) % side
}

func TestGridCoordRoundTrip(t *testing.T) {
	const side = 15
	for n := NodeID(0); int(n) < side*side; n++ {
		row, col := gridCoord(side, n)
		if GridIndex(side, row, col) != n {
			t.Fatalf("GridIndex(gridCoord(%d)) = %d", n, GridIndex(side, row, col))
		}
	}
}

func TestBFSDistancesOnGrid(t *testing.T) {
	const side = 11
	g := mustGrid(t, side)
	dist := g.BFSFrom(GridCentre(side))
	cr, cc := gridCoord(side, GridCentre(side))
	for n := range dist {
		row, col := gridCoord(side, NodeID(n))
		manhattan := abs(row-cr) + abs(col-cc)
		if dist[n] != manhattan {
			t.Fatalf("dist[%d] = %d, want Manhattan %d", n, dist[n], manhattan)
		}
	}
	// The paper's Δss for an 11×11 grid: top-left source to centre sink.
	if got := dist[GridTopLeft()]; got != 10 {
		t.Errorf("Δss = %d, want 10", got)
	}
}

func TestHopDistanceSymmetry(t *testing.T) {
	g, err := RandomGeometric(40, 50, 50, 12, 7)
	if err != nil {
		t.Fatalf("RandomGeometric: %v", err)
	}
	for a := NodeID(0); int(a) < g.Len(); a += 7 {
		for b := NodeID(0); int(b) < g.Len(); b += 5 {
			if g.HopDistance(a, b) != g.HopDistance(b, a) {
				t.Fatalf("asymmetric hop distance between %d and %d", a, b)
			}
		}
	}
}

func TestTwoHopMatchesBruteForce(t *testing.T) {
	g, err := RandomGeometric(60, 60, 60, 13, 3)
	if err != nil {
		t.Fatalf("RandomGeometric: %v", err)
	}
	for n := NodeID(0); int(n) < g.Len(); n++ {
		want := make(map[NodeID]bool)
		dist := g.BFSFrom(n)
		for m := range dist {
			if dist[m] == 1 || dist[m] == 2 {
				want[NodeID(m)] = true
			}
		}
		got := g.TwoHop(n)
		if len(got) != len(want) {
			t.Fatalf("node %d: TwoHop size %d, want %d", n, len(got), len(want))
		}
		for _, m := range got {
			if !want[m] {
				t.Fatalf("node %d: TwoHop contains %d which is not at distance 1 or 2", n, m)
			}
		}
	}
}

func TestTwoHopExcludesSelf(t *testing.T) {
	g := mustGrid(t, 5)
	for n := NodeID(0); int(n) < g.Len(); n++ {
		for _, m := range g.TwoHop(n) {
			if m == n {
				t.Fatalf("TwoHop(%d) contains the node itself", n)
			}
		}
	}
}

// TestTwoHopRanksMatchBinarySearch: on every directed edge s→r of two
// grids and two RGGs, the rank row lists the position slices.BinarySearch
// finds in TwoHop(r) for s and for each neighbour of s, and NoRank for r.
func TestTwoHopRanksMatchBinarySearch(t *testing.T) {
	side := math.Sqrt(500) * DefaultSpacing
	for _, tc := range []struct {
		name  string
		build func() (*Graph, error)
	}{
		{"grid5", func() (*Graph, error) { return DefaultGrid(5) }},
		{"grid11", func() (*Graph, error) { return DefaultGrid(11) }},
		{"rgg500-range1.8", func() (*Graph, error) { return RandomGeometric(500, side, side, 1.8*DefaultSpacing, 1) }},
		{"rgg500-range2.2", func() (*Graph, error) { return RandomGeometric(500, side, side, 2.2*DefaultSpacing, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			rows, err := g.TwoHopRanks()
			if err != nil {
				t.Fatal(err)
			}
			rank := func(r, m NodeID) uint16 {
				if m == r {
					return NoRank
				}
				i, ok := slices.BinarySearch(g.TwoHop(r), m)
				if !ok {
					t.Fatalf("node %d is not within two hops of %d", m, r)
				}
				return uint16(i)
			}
			edges := 0
			for s := NodeID(0); int(s) < g.Len(); s++ {
				for e, r := range g.Neighbors(s) {
					want := []uint16{rank(r, s)}
					for _, m := range g.Neighbors(s) {
						want = append(want, rank(r, m))
					}
					if got := rows.Row(s, e); !slices.Equal(got, want) {
						t.Fatalf("edge %d→%d: row %v, want %v", s, r, got, want)
					}
					edges++
				}
			}
			if edges != 2*g.EdgeCount() {
				t.Errorf("checked %d directed edges, want %d", edges, 2*g.EdgeCount())
			}
		})
	}
}

// TestTwoHopRanksConcurrentFirstUse: workers running networks on one
// graph may all reach the lazy build at once; each gets the same rows.
func TestTwoHopRanksConcurrentFirstUse(t *testing.T) {
	g := mustGrid(t, 11)
	got := make([]*RankRows, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = g.TwoHopRanks()
		}()
	}
	wg.Wait()
	for i, rows := range got {
		if rows == nil || rows != got[0] {
			t.Fatalf("caller %d got rows %p, caller 0 %p", i, rows, got[0])
		}
	}
}

// TestTwoHopRanksRefuseOversizedSets: a two-hop set one member past
// maxTwoHop fails the build with an error naming its node instead of
// wrapping a rank; a set of exactly maxTwoHop members builds. The sets
// are faked: no graph that dense is built.
func TestTwoHopRanksRefuseOversizedSets(t *testing.T) {
	g := &Graph{positions: make([]Point, 3), off: make([]int, 4)} // three isolated nodes
	twoHop := make([][]NodeID, 3)
	twoHop[1] = make([]NodeID, maxTwoHop)
	if _, err := buildRankRows(g, twoHop); err != nil {
		t.Fatalf("a %d-member two-hop set: %v", maxTwoHop, err)
	}
	twoHop[1] = make([]NodeID, maxTwoHop+1)
	_, err := buildRankRows(g, twoHop)
	if err == nil || !strings.Contains(err.Error(), "node 1 ") {
		t.Fatalf("a %d-member two-hop set: err = %v, want an error naming node 1", maxTwoHop+1, err)
	}
}

func TestEdgeDistanceProperty(t *testing.T) {
	// For every edge (a,b), |dist(root,a) - dist(root,b)| <= 1.
	check := func(seed uint64) bool {
		g, err := RandomGeometric(30, 40, 40, 12, seed)
		if err != nil {
			return true // connectivity retry exhausted; skip
		}
		dist := g.BFSFrom(0)
		for a := NodeID(0); int(a) < g.Len(); a++ {
			for _, b := range g.Neighbors(a) {
				if d := dist[a] - dist[b]; d < -1 || d > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestLineAndRing(t *testing.T) {
	line, err := Line(10, 4.5, 4.5)
	if err != nil {
		t.Fatalf("Line: %v", err)
	}
	if len(line.Neighbors(0)) != 1 || len(line.Neighbors(5)) != 2 {
		t.Errorf("line degrees: end=%d mid=%d, want 1 and 2", len(line.Neighbors(0)), len(line.Neighbors(5)))
	}
	if got := line.HopDistance(0, 9); got != 9 {
		t.Errorf("line hop distance = %d, want 9", got)
	}

	ring, err := Ring(12, 4.5, 5.0)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	for n := NodeID(0); int(n) < ring.Len(); n++ {
		if len(ring.Neighbors(n)) != 2 {
			t.Fatalf("ring node %d degree = %d, want 2", n, len(ring.Neighbors(n)))
		}
	}
	if got := ring.HopDistance(0, 6); got != 6 {
		t.Errorf("ring hop distance = %d, want 6", got)
	}
}

func TestDiameterGrid(t *testing.T) {
	g := mustGrid(t, 5)
	if got := g.Diameter(); got != 8 {
		t.Errorf("5x5 grid diameter = %d, want 8", got)
	}
}

func TestInvalidBuilders(t *testing.T) {
	if _, err := Grid(1, 4.5, 4.5); err == nil {
		t.Error("Grid(1) succeeded, want error")
	}
	if _, err := NewGraph("x", nil, 4.5); err == nil {
		t.Error("NewGraph with no positions succeeded, want error")
	}
	if _, err := NewGraph("x", []Point{{}}, -1); err == nil {
		t.Error("NewGraph with negative range succeeded, want error")
	}
	if _, err := Line(1, 4.5, 4.5); err == nil {
		t.Error("Line(1) succeeded, want error")
	}
	if _, err := Ring(2, 4.5, 4.5); err == nil {
		t.Error("Ring(2) succeeded, want error")
	}
	if _, err := RandomGeometric(1, 10, 10, 5, 1); err == nil {
		t.Error("RandomGeometric(1) succeeded, want error")
	}
	// Disconnected by construction: tiny range, many retries exhausted.
	if _, err := RandomGeometric(50, 1000, 1000, 1, 1); err == nil {
		t.Error("RandomGeometric with tiny range succeeded, want connectivity error")
	}
}

func TestRenderGrid(t *testing.T) {
	out := RenderGrid(2, func(n NodeID) string { return map[NodeID]string{0: "a", 1: "bb", 2: "c", 3: "d"}[n] })
	want := " a bb\n c  d\n"
	if out != want {
		t.Errorf("RenderGrid = %q, want %q", out, want)
	}
}

func TestPointDistance(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if d := p.DistanceTo(q); math.Abs(d-5) > 1e-12 {
		t.Errorf("distance = %v, want 5", d)
	}
	if s := q.String(); s != "(3.00, 4.00)" {
		t.Errorf("String = %q", s)
	}
}

// TestNeighborDistancesMatchPositions pins the stored edge lengths to the
// positions, bit for bit, in both directions: the unit-disk test stores
// one length per edge, computed from the lower-numbered end, and both
// directions serve it, which holds only because DistanceTo is symmetric to
// the last bit (a-b and b-a differ only in sign; Hypot takes absolute
// values). FirstEdge numbers the directed edges in the same order, without
// gaps.
func TestNeighborDistancesMatchPositions(t *testing.T) {
	var graphs []*Graph
	add := func(g *Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	add(DefaultGrid(11))
	add(Grid(9, DefaultSpacing, 1.5*DefaultSpacing)) // diagonals in range
	add(Line(40, 3, 6.5))
	add(Ring(60, 2, 2.05))
	side := math.Sqrt(500) * DefaultSpacing
	add(RandomGeometric(500, side, side, 1.8*DefaultSpacing, 1<<8))
	for _, g := range graphs {
		edges := 0
		for a := NodeID(0); int(a) < g.Len(); a++ {
			nbrs, dists := g.Neighbors(a), g.NeighborDistances(a)
			if len(dists) != len(nbrs) {
				t.Fatalf("%s: node %d has %d neighbours but %d distances", g.Name(), a, len(nbrs), len(dists))
			}
			if got := g.FirstEdge(a); got != edges {
				t.Fatalf("%s: FirstEdge(%d) = %d, want %d, the directed edges before it", g.Name(), a, got, edges)
			}
			for j, b := range nbrs {
				got := math.Float64bits(dists[j])
				ab := g.Position(a).DistanceTo(g.Position(b))
				ba := g.Position(b).DistanceTo(g.Position(a))
				if got != math.Float64bits(ab) || got != math.Float64bits(ba) {
					t.Fatalf("%s: edge %d→%d stores %v, positions give %v one way and %v the other", g.Name(), a, b, dists[j], ab, ba)
				}
				edges++
			}
		}
		if edges != 2*g.EdgeCount() {
			t.Errorf("%s: checked %d directed edges, want %d", g.Name(), edges, 2*g.EdgeCount())
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestEndpointRule pins the endpoint rule's tie-breaks and hop cap: the
// nearest node and the hop-farthest node are the lowest-numbered of the
// tied ones, a cap keeps the source within maxHops, and a node with
// nothing in reach is its own farthest.
func TestEndpointRule(t *testing.T) {
	g := mustGrid(t, 3) // 0 1 2 / 3 4 5 / 6 7 8
	gap, err := NewGraph("gap", []Point{{0, 0}, {1, 0}, {5, 0}}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSpacing
	for _, c := range []struct {
		name string
		got  NodeID
		want NodeID
	}{
		{"nearest exact", g.Nearest(Point{s, s}), 4},
		{"nearest tie 0-1", g.Nearest(Point{s / 2, 0}), 0},
		{"nearest tie 4-5-7-8", g.Nearest(Point{1.5 * s, 1.5 * s}), 4},
		{"nearest far off", g.Nearest(Point{100 * s, -s}), 2},
		{"farthest unique", g.HopFarthest(0, 0), 8},
		{"farthest tie of four corners", g.HopFarthest(4, 0), 0},
		{"farthest cap 1", g.HopFarthest(8, 1), 5},
		{"farthest cap 3 tie 5-7", g.HopFarthest(0, 3), 5},
		{"farthest cap past eccentricity", g.HopFarthest(0, 9), 8},
		{"farthest skips unreachable", gap.HopFarthest(0, 0), 1},
		{"farthest with nothing in reach", gap.HopFarthest(2, 0), 2},
	} {
		if c.got != c.want {
			t.Errorf("%s: got node %d, want %d", c.name, c.got, c.want)
		}
	}
}
