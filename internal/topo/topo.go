// Package topo models wireless sensor network topologies as undirected
// graphs with node positions and unit-disk connectivity, following the
// system model of Section III-A of the paper: nodes have a circular
// communication range and two nodes are linked iff they are within range
// of each other.
package topo

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// NodeID is the unique identifier of a WSN node. IDs are dense indices in
// [0, Graph.Len()).
type NodeID int32

// None is the sentinel "no node" value.
const None NodeID = -1

// Point is a node position in metres.
type Point struct {
	X, Y float64
}

// DistanceTo returns the Euclidean distance between p and q in metres.
func (p Point) DistanceTo(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Hypot(dx, dy)
}

// String renders the point as "(x, y)".
func (p Point) String() string {
	return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y)
}

// Graph is an immutable undirected WSN topology. Adjacency lists are sorted
// by node ID so that every iteration order in the system is deterministic.
//
// Adjacency is stored in CSR (compressed sparse row) form — one flat
// neighbour slice plus per-node offsets — so a whole campaign of runs
// iterating neighbourhoods walks contiguous memory, and the graph can be
// shared read-only across worker goroutines. Each directed edge also
// keeps its length, in a flat slice parallel to the neighbours, so the
// radio fan-out reads distances instead of recomputing them. The two-hop
// collision neighbourhoods of Definition 1 are materialised the same way,
// lazily, on first use.
type Graph struct {
	name       string
	positions  []Point
	off        []int     // node i's edges are entries off[i] to off[i+1] of adjFlat and distFlat
	adjFlat    []NodeID  // each edge's far end
	distFlat   []float64 // each edge's length
	radioRange float64
	edgeCount  int

	twoHopOnce sync.Once
	twoHop     [][]NodeID // twoHop[i] slices twoHopFlat
	twoHopFlat []NodeID

	ranksOnce sync.Once
	ranks     *RankRows
	ranksErr  error
}

// rangeEps is the slack added to the radio range when testing whether two
// nodes are linked, absorbing floating-point noise in distances that are
// exactly at range (e.g. grid neighbours at spacing == radioRange).
const rangeEps = 1e-9

// edge is one undirected link, stored with a < b, and its length
// positions[a].DistanceTo(positions[b]): the value the unit-disk test
// accepted it on.
type edge struct {
	a, b NodeID
	dist float64
}

// validateGraphInput checks the shared NewGraph/RandomGeometric input
// contract: at least one position, a positive finite radio range, and
// finite coordinates. Non-finite coordinates previously slipped through —
// every DistanceTo comparison against a NaN/±Inf position is false, so the
// node silently ended up isolated instead of failing loudly.
func validateGraphInput(positions []Point, radioRange float64) error {
	if len(positions) == 0 {
		return fmt.Errorf("topo: no positions supplied")
	}
	if radioRange <= 0 {
		return fmt.Errorf("topo: radio range must be positive, got %v", radioRange)
	}
	if math.IsNaN(radioRange) || math.IsInf(radioRange, 0) {
		return fmt.Errorf("topo: radio range must be finite, got %v", radioRange)
	}
	for i, p := range positions {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("topo: position %d is not finite: %v", i, p)
		}
	}
	return nil
}

// NewGraph builds a unit-disk graph over the given positions: nodes i and j
// share an edge iff their distance is at most radioRange. It returns an
// error if radioRange is not positive and finite, no positions are
// supplied, or any coordinate is NaN/±Inf.
//
// Neighbour discovery runs on a spatial-hash bucket grid (cells no smaller
// than the radio range, candidates from the 3×3 bucket neighbourhood), so
// construction is O(n + edges) for bounded-density layouts instead of the
// all-pairs O(n²) scan — the difference between milliseconds and hours at
// 10⁶ nodes. The result is pinned byte-identical to the naive scan (kept
// below as newGraphNaive) by the equivalence tests in equiv_test.go.
func NewGraph(name string, positions []Point, radioRange float64) (*Graph, error) {
	if err := validateGraphInput(positions, radioRange); err != nil {
		return nil, err
	}
	edges, degree := unitDiskEdges(positions, radioRange)
	return assembleGraph(name, positions, radioRange, edges, degree), nil
}

// newGraphNaive is the original O(n²) all-pairs reference implementation.
// It is retained solely so the property/equivalence tests can pin the
// spatial-hash path byte-identical against it; production callers always
// go through NewGraph.
func newGraphNaive(name string, positions []Point, radioRange float64) (*Graph, error) {
	if err := validateGraphInput(positions, radioRange); err != nil {
		return nil, err
	}
	edges, degree := unitDiskEdgesNaive(positions, radioRange)
	return assembleGraph(name, positions, radioRange, edges, degree), nil
}

// unitDiskEdgesNaive enumerates all in-range pairs (a < b) by brute force,
// in (a, b) ascending order.
func unitDiskEdgesNaive(positions []Point, radioRange float64) ([]edge, []int32) {
	degree := make([]int32, len(positions))
	var edges []edge
	for i := range positions {
		for j := i + 1; j < len(positions); j++ {
			if d := positions[i].DistanceTo(positions[j]); d <= radioRange+rangeEps {
				edges = append(edges, edge{NodeID(i), NodeID(j), d})
				degree[i]++
				degree[j]++
			}
		}
	}
	return edges, degree
}

// unitDiskEdges enumerates all in-range pairs (a < b) with a spatial hash.
// The edge set — and every distance comparison that decides it — is
// identical to unitDiskEdgesNaive: each surviving pair is accepted by the
// same positions[i].DistanceTo(positions[j]) <= radioRange+rangeEps test
// with i < j, so float rounding matches bit for bit. Edges are emitted in
// ascending a; per-a neighbour order is bucket order, which assembleGraph
// re-sorts.
//
// The cell side exceeds the link limit by a guard proportional to the
// coordinate spread: the coordinate→cell map rounds (p - min)/cell, whose
// absolute error grows with the spread, and the guard keeps two in-range
// nodes within one cell of each other even at extreme spreads (the
// degenerate layouts the fuzz target throws at it). Buckets are a dense
// grid when the field is compact, and a hash map keyed by packed cell
// coordinates when the field is so sparse a dense grid would dwarf n.
func unitDiskEdges(positions []Point, radioRange float64) ([]edge, []int32) {
	return new(scan).unitDiskEdges(positions, radioRange)
}

// scan is the scratch of a unit-disk edge scan and its connectivity check.
// RandomGeometric keeps one across the layouts it rejects, so a retry
// reuses the first attempt's arrays instead of allocating its own. The
// edges and degrees a scan returns live in its scratch: they are valid
// until the scan's next use, which is all assembleGraph, copying what it
// keeps, needs.
type scan struct {
	degree, cx, cy   []int32
	start, next, ids []int32 // dense bucket grid
	buckets          map[int64][]int32
	edges            []edge
	parent           []int32 // union-find
}

// reuse returns buf resized to n elements, zeroed, reallocating only when
// its capacity is short.
func reuse(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// unitDiskEdges is the package-level unitDiskEdges on the scan's scratch.
func (s *scan) unitDiskEdges(positions []Point, radioRange float64) ([]edge, []int32) {
	n := len(positions)
	s.degree = reuse(s.degree, n)
	degree := s.degree
	limit := radioRange + rangeEps

	minX, minY := positions[0].X, positions[0].Y
	maxX, maxY := minX, minY
	for _, p := range positions[1:] {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	spread := math.Max(maxX-minX, maxY-minY)
	// cell ≥ limit + spread·2⁻³⁰ ≥ limit + (total rounding error of the
	// coordinate→cell map), so |cell(i) - cell(j)| ≤ 1 per axis for every
	// in-range pair; the 2⁻³⁰ term also caps the grid at 2³⁰ cells/axis.
	cell := limit*(1+0x1p-20) + spread*0x1p-30

	s.cx, s.cy = reuse(s.cx, n), reuse(s.cy, n)
	cx, cy := s.cx, s.cy
	var nx, ny int64 = 1, 1
	for i, p := range positions {
		x := int64(math.Floor((p.X - minX) / cell))
		y := int64(math.Floor((p.Y - minY) / cell))
		if x < 0 {
			x = 0
		}
		if y < 0 {
			y = 0
		}
		cx[i], cy[i] = int32(x), int32(y)
		if x+1 > nx {
			nx = x + 1
		}
		if y+1 > ny {
			ny = y + 1
		}
	}

	// An edge carries its length, so letting append grow the slice would
	// copy twice the bytes an edge without it did. A dense bucket grid
	// sizes it from the mean density instead: n nodes spread over the
	// field make about n²·π·limit²/(2·field area) pairs in range, and the
	// 30% margin covers a 4-neighbour grid without a regrowth.
	// A scan reused for another layout of the same field keeps the edge
	// array it sized first (or regrew since): the estimate moves by a few
	// percent between layouts, far less than its margin.
	total := nx * ny
	dense := total <= int64(4*n+64)
	if s.edges == nil {
		capacity := 4 * n
		if dense {
			pairs := 1.3 * math.Pi * float64(n) * float64(n) * limit * limit / (2 * float64(total) * cell * cell)
			capacity = int(min(pairs, float64(n)*float64(n-1)/2)) + 16
		}
		s.edges = make([]edge, 0, capacity)
	}
	edges := s.edges[:0]
	test := func(i, j int32) { // i < j
		if d := positions[i].DistanceTo(positions[j]); d <= limit {
			edges = append(edges, edge{NodeID(i), NodeID(j), d})
			degree[i]++
			degree[j]++
		}
	}

	if dense {
		// Dense grid: bucket b = cy·nx + cx, nodes grouped by counting
		// sort (so every bucket lists its nodes in ascending ID order).
		// Sized for one more cell per axis, so a reused scan serves
		// another layout of the same field without regrowing.
		if int64(cap(s.start)) < total+1 {
			room := (nx+1)*(ny+1) + 1
			s.start, s.next = make([]int32, room), make([]int32, room)
		}
		start := reuse(s.start, int(total)+1)
		for i := 0; i < n; i++ {
			start[int64(cy[i])*nx+int64(cx[i])+1]++
		}
		for b := int64(1); b <= total; b++ {
			start[b] += start[b-1]
		}
		s.ids = reuse(s.ids, n)
		ids := s.ids
		next := append(s.next[:0], start[:total]...)
		for i := 0; i < n; i++ {
			b := int64(cy[i])*nx + int64(cx[i])
			ids[next[b]] = int32(i)
			next[b]++
		}
		for i := 0; i < n; i++ {
			for dy := int64(-1); dy <= 1; dy++ {
				yy := int64(cy[i]) + dy
				if yy < 0 || yy >= ny {
					continue
				}
				for dx := int64(-1); dx <= 1; dx++ {
					xx := int64(cx[i]) + dx
					if xx < 0 || xx >= nx {
						continue
					}
					b := yy*nx + xx
					for _, j := range ids[start[b]:start[b+1]] {
						if int(j) > i {
							test(int32(i), j)
						}
					}
				}
			}
		}
		s.edges = edges // keep a regrown array for the next scan
		return edges, degree
	}

	// Sparse field: hash buckets by packed cell coordinates (≤ 2³⁰ per
	// axis, so the pack is lossless).
	key := func(x, y int64) int64 { return x<<31 | y }
	if s.buckets == nil {
		s.buckets = make(map[int64][]int32, n)
	}
	clear(s.buckets)
	buckets := s.buckets
	for i := 0; i < n; i++ {
		k := key(int64(cx[i]), int64(cy[i]))
		buckets[k] = append(buckets[k], int32(i)) // ascending i per bucket
	}
	for i := 0; i < n; i++ {
		for dy := int64(-1); dy <= 1; dy++ {
			yy := int64(cy[i]) + dy
			if yy < 0 {
				continue
			}
			for dx := int64(-1); dx <= 1; dx++ {
				xx := int64(cx[i]) + dx
				if xx < 0 {
					continue
				}
				for _, j := range buckets[key(xx, yy)] {
					if int(j) > i {
						test(int32(i), j)
					}
				}
			}
		}
	}
	s.edges = edges
	return edges, degree
}

// assembleGraph flattens an edge set, enumerated in ascending a, into the
// CSR adjacency and its parallel edge lengths. It first sorts each node's
// run of edges by b, each length moving with its edge, so the spatial-hash
// and naive paths assemble the same bytes. The order then leaves every
// neighbour list sorted: node i first receives its neighbours below i, as
// the b of edges in ascending a, then its own run, ascending b. Both
// directions of an edge store the one length the unit-disk test computed:
// DistanceTo is symmetric bit for bit, since a-b and b-a differ only in
// sign and Hypot takes absolute values.
func assembleGraph(name string, positions []Point, radioRange float64, edges []edge, degree []int32) *Graph {
	for lo := 0; lo < len(edges); {
		hi := lo + 1
		for hi < len(edges) && edges[hi].a == edges[lo].a {
			hi++
		}
		slices.SortFunc(edges[lo:hi], func(x, y edge) int { return cmp.Compare(x.b, y.b) })
		lo = hi
	}
	g := &Graph{
		name:       name,
		positions:  append([]Point(nil), positions...),
		radioRange: radioRange,
		edgeCount:  len(edges),
	}
	n := len(positions)
	g.off = make([]int, n+1)
	for i, d := range degree {
		g.off[i+1] = g.off[i] + int(d)
	}
	g.adjFlat = make([]NodeID, 2*len(edges))
	g.distFlat = make([]float64, 2*len(edges))
	next := slices.Clone(g.off[:n]) // next[i]: where node i's next edge goes
	for _, e := range edges {
		k := next[e.a]
		g.adjFlat[k], g.distFlat[k] = e.b, e.dist
		next[e.a]++
		k = next[e.b]
		g.adjFlat[k], g.distFlat[k] = e.a, e.dist
		next[e.b]++
	}
	return g
}

// connected reports whether the edge set spans all n nodes as a single
// component, via union-find with path halving on the scan's scratch.
// RandomGeometric uses it to reject disconnected layouts from the raw edge
// scan, before paying for CSR assembly.
func (s *scan) connected(n int, edges []edge) bool {
	if n == 0 {
		return false
	}
	s.parent = reuse(s.parent, n)
	parent := s.parent
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	comps := n
	for _, e := range edges {
		ra, rb := find(int32(e.a)), find(int32(e.b))
		if ra != rb {
			parent[ra] = rb
			comps--
		}
	}
	return comps == 1
}

// Name returns the human-readable topology name (e.g. "grid-11x11").
func (g *Graph) Name() string { return g.name }

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.positions) }

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int { return g.edgeCount }

// RadioRange returns the communication range used to build the graph.
func (g *Graph) RadioRange() float64 { return g.radioRange }

// Valid reports whether n is a node of the graph.
func (g *Graph) Valid(n NodeID) bool { return n >= 0 && int(n) < len(g.positions) }

// Position returns the position of node n.
func (g *Graph) Position(n NodeID) Point { return g.positions[n] }

// Neighbors returns the 1-hop neighbourhood of n, sorted by ID. The returned
// slice is shared and must not be modified.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	lo, hi := g.off[n], g.off[n+1]
	return g.adjFlat[lo:hi:hi]
}

// NeighborDistances returns the length in metres of each edge from n, in
// Neighbors(n) order: entry k equals, bit for bit,
// Position(n).DistanceTo(Position(Neighbors(n)[k])). The returned slice is
// shared and must not be modified.
func (g *Graph) NeighborDistances(n NodeID) []float64 {
	lo, hi := g.off[n], g.off[n+1]
	return g.distFlat[lo:hi:hi]
}

// FirstEdge returns the index of n's first directed edge: the edge from n
// to Neighbors(n)[k] is FirstEdge(n)+k, and the indexes of all directed
// edges run from 0 to 2·EdgeCount()−1 without gaps. Per-edge tables sized
// 2·EdgeCount() index by it, in the order of NeighborDistances.
func (g *Graph) FirstEdge(n NodeID) int { return g.off[n] }

// HasEdge reports whether nodes a and b are within communication range.
func (g *Graph) HasEdge(a, b NodeID) bool {
	if a == b {
		return false
	}
	neigh := g.Neighbors(a)
	i := sort.Search(len(neigh), func(i int) bool { return neigh[i] >= b })
	return i < len(neigh) && neigh[i] == b
}

// TwoHop returns CG(n): the set of nodes within two hops of n, excluding n
// itself, sorted by ID. This is the collision neighbourhood of Definition 1.
// The whole two-hop CSR is materialised once per graph on first call and
// shared thereafter (schedule validation walks it once per run, and a
// campaign replays thousands of runs on one graph); the returned slice is
// shared and must not be modified.
func (g *Graph) TwoHop(n NodeID) []NodeID {
	g.twoHopOnce.Do(g.buildTwoHop)
	return g.twoHop[n]
}

func (g *Graph) buildTwoHop() {
	n := len(g.positions)
	// Stamp-based membership avoids a map per node; sets stay sorted by a
	// final per-node sort, matching the original per-call construction.
	stamp := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
	}
	var flat []NodeID
	cut := make([]int, n+1)
	for i := 0; i < n; i++ {
		start := len(flat)
		for _, m := range g.Neighbors(NodeID(i)) {
			if stamp[m] != int32(i) && int(m) != i {
				stamp[m] = int32(i)
				flat = append(flat, m)
			}
			for _, o := range g.Neighbors(m) {
				if stamp[o] != int32(i) && int(o) != i {
					stamp[o] = int32(i)
					flat = append(flat, o)
				}
			}
		}
		set := flat[start:]
		sort.Slice(set, func(a, b int) bool { return set[a] < set[b] })
		cut[i+1] = len(flat)
	}
	g.twoHopFlat = flat
	g.twoHop = make([][]NodeID, n)
	for i := 0; i < n; i++ {
		g.twoHop[i] = flat[cut[i]:cut[i+1]:cut[i+1]]
	}
}

// NoRank marks, in a rank row, the row's receiver itself: a node is not a
// member of its own two-hop set.
const NoRank = math.MaxUint16

// maxTwoHop is the largest two-hop set a rank row can index: ranks run
// from 0 to maxTwoHop-1, and NoRank stays free.
const maxTwoHop = NoRank - 1

// RankRows maps each node's closed neighbourhood into the two-hop set of
// each of its neighbours. For the directed edge s→r, with r the e-th
// neighbour of s, Row(s, e) gives the rank in TwoHop(r) of s, then of
// each Neighbors(s)[j] — all of them within two hops of r — with NoRank
// in r's own place. A node with degree d has d rows of d+1 entries each,
// stored back to back in one flat slice.
type RankRows struct {
	off  []int // the graph's CSR offsets: node s has degree off[s+1]-off[s]
	base []int // base[s]: where node s's rows start in flat
	flat []uint16
}

// Row returns the rank row of the edge from s to its e-th neighbour. The
// returned slice is shared and must not be modified.
//
//slp:hotpath
func (r *RankRows) Row(s NodeID, e int) []uint16 {
	w := r.off[s+1] - r.off[s] + 1
	off := r.base[s] + e*w
	return r.flat[off : off+w : off+w]
}

// TwoHopRanks returns the rank rows of every directed edge. They are
// built once per graph on first call and shared thereafter, like TwoHop.
// It fails, naming the node, when a two-hop set has more than 65,534
// members, since a rank would no longer fit its row.
func (g *Graph) TwoHopRanks() (*RankRows, error) {
	g.ranksOnce.Do(func() {
		g.twoHopOnce.Do(g.buildTwoHop)
		g.ranks, g.ranksErr = buildRankRows(g, g.twoHop)
	})
	return g.ranks, g.ranksErr
}

// buildRankRows scatters each TwoHop(r) into one n-sized rank array and
// reads off the rows of every edge into r from it, with no search or sort
// per row. Receivers are visited in ascending order and adjacency lists
// are sorted, so the edges into r are, for each sender s, the next unread
// entry of s's list: next[s] counts them.
func buildRankRows(g *Graph, twoHop [][]NodeID) (*RankRows, error) {
	for r, set := range twoHop {
		if len(set) > maxTwoHop {
			return nil, fmt.Errorf("topo: node %d has %d nodes within two hops, more than the %d a rank row can index", r, len(set), maxTwoHop)
		}
	}
	n := g.Len()
	rows := &RankRows{off: g.off, base: make([]int, n)}
	total := 0
	for s := range rows.base {
		d := g.off[s+1] - g.off[s]
		rows.base[s] = total
		total += d * (d + 1)
	}
	rows.flat = make([]uint16, total)
	rank := make([]uint16, n)
	next := make([]int, n)
	for r := NodeID(0); int(r) < n; r++ {
		for k, m := range twoHop[r] {
			rank[m] = uint16(k)
		}
		rank[r] = NoRank
		for _, s := range g.Neighbors(r) {
			nbrs := g.Neighbors(s)
			row := rows.Row(s, next[s])
			next[s]++
			row[0] = rank[s]
			for j, m := range nbrs {
				row[j+1] = rank[m]
			}
		}
	}
	return rows, nil
}

// BFSFrom returns hop distances from root to every node; unreachable nodes
// get distance -1.
func (g *Graph) BFSFrom(root NodeID) []int {
	dist := make([]int, len(g.positions))
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	queue := make([]NodeID, 0, len(g.positions))
	queue = append(queue, root)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, m := range g.Neighbors(cur) {
			if dist[m] < 0 {
				dist[m] = dist[cur] + 1
				queue = append(queue, m)
			}
		}
	}
	return dist
}

// Nearest returns the node closest to p, the lowest-numbered on a tie.
func (g *Graph) Nearest(p Point) NodeID {
	best, bestD := NodeID(0), math.Inf(1)
	for id, q := range g.positions {
		if d := q.DistanceTo(p); d < bestD {
			best, bestD = NodeID(id), d
		}
	}
	return best
}

// HopFarthest returns the node the most hops from from, within maxHops
// of it when maxHops > 0: the lowest-numbered on a tie, and from itself
// when no other node is in reach. With Nearest it is the endpoint rule of
// the graphs that name no endpoints: the sink is the node nearest the
// centre, the source the node hop-farthest from the sink.
func (g *Graph) HopFarthest(from NodeID, maxHops int) NodeID {
	best, bestHops := from, 0
	for id, d := range g.BFSFrom(from) {
		if d > bestHops && (maxHops <= 0 || d <= maxHops) {
			best, bestHops = NodeID(id), d
		}
	}
	return best
}

// HopDistance returns the hop distance between a and b, or -1 if
// disconnected.
func (g *Graph) HopDistance(a, b NodeID) int {
	return g.BFSFrom(a)[b]
}

// Connected reports whether every node is reachable from node 0.
func (g *Graph) Connected() bool {
	for _, d := range g.BFSFrom(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// Diameter returns the maximum hop distance over all pairs, or -1 if the
// graph is disconnected.
func (g *Graph) Diameter() int {
	diam := 0
	for n := NodeID(0); int(n) < g.Len(); n++ {
		for _, d := range g.BFSFrom(n) {
			if d < 0 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// ShortestPathNextHops returns the neighbours of n that lie on a shortest
// path from n towards the root of the supplied BFS distance vector, i.e.
// neighbours m with dist[m] == dist[n]-1. This is the neighbour set used by
// condition 3 of the strong DAS definition.
func (g *Graph) ShortestPathNextHops(n NodeID, dist []int) []NodeID {
	var out []NodeID
	for _, m := range g.Neighbors(n) {
		if dist[m] >= 0 && dist[n] >= 0 && dist[m] == dist[n]-1 {
			out = append(out, m)
		}
	}
	return out
}
