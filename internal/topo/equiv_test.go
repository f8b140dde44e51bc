package topo

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// graphsIdentical asserts every byte of the CSR adjacency matches between
// the spatial-hash and naive constructions: same edge count, same per-node
// offsets, same flat neighbour and edge-length arrays (lengths compared
// bit for bit).
func graphsIdentical(t *testing.T, label string, fast, ref *Graph) {
	t.Helper()
	if fast.Len() != ref.Len() {
		t.Fatalf("%s: node count %d != %d", label, fast.Len(), ref.Len())
	}
	if fast.EdgeCount() != ref.EdgeCount() {
		t.Fatalf("%s: edge count %d != %d", label, fast.EdgeCount(), ref.EdgeCount())
	}
	if len(fast.adjFlat) != len(ref.adjFlat) {
		t.Fatalf("%s: adjFlat length %d != %d", label, len(fast.adjFlat), len(ref.adjFlat))
	}
	for i, v := range fast.adjFlat {
		if v != ref.adjFlat[i] {
			t.Fatalf("%s: adjFlat[%d] = %d, want %d", label, i, v, ref.adjFlat[i])
		}
	}
	if len(fast.distFlat) != len(fast.adjFlat) || len(ref.distFlat) != len(ref.adjFlat) {
		t.Fatalf("%s: %d and %d edge lengths for %d edges", label, len(fast.distFlat), len(ref.distFlat), len(fast.adjFlat))
	}
	for i, v := range fast.distFlat {
		if math.Float64bits(v) != math.Float64bits(ref.distFlat[i]) {
			t.Fatalf("%s: distFlat[%d] = %v, want %v", label, i, v, ref.distFlat[i])
		}
	}
	if len(fast.off) != len(ref.off) {
		t.Fatalf("%s: %d offsets, want %d", label, len(fast.off), len(ref.off))
	}
	for i, v := range fast.off {
		if v != ref.off[i] {
			t.Fatalf("%s: node %d's edges start at %d, want %d", label, i, v, ref.off[i])
		}
	}
}

// checkEquivalent builds the same layout through both paths and pins them
// byte-identical.
func checkEquivalent(t *testing.T, label string, positions []Point, radioRange float64) {
	t.Helper()
	fast, errFast := NewGraph(label, positions, radioRange)
	ref, errRef := newGraphNaive(label, positions, radioRange)
	if (errFast == nil) != (errRef == nil) {
		t.Fatalf("%s: error mismatch: fast=%v naive=%v", label, errFast, errRef)
	}
	if errFast != nil {
		return
	}
	graphsIdentical(t, label, fast, ref)
}

// TestSpatialHashMatchesNaiveStructured pins the spatial-hash CSR against
// the naive all-pairs reference on the structured builders, including the
// edge-of-range regimes the builders exercise (grid spacing == range, ring
// spacing just under range).
func TestSpatialHashMatchesNaiveStructured(t *testing.T) {
	for _, side := range []int{2, 3, 5, 11, 17} {
		positions := make([]Point, 0, side*side)
		for row := 0; row < side; row++ {
			for col := 0; col < side; col++ {
				positions = append(positions, Point{X: float64(col) * DefaultSpacing, Y: float64(row) * DefaultSpacing})
			}
		}
		checkEquivalent(t, fmt.Sprintf("grid-%d", side), positions, DefaultSpacing)
		// Diagonal neighbours in range too.
		checkEquivalent(t, fmt.Sprintf("grid8-%d", side), positions, DefaultSpacing*1.5)
	}
	for _, n := range []int{2, 7, 64, 301} {
		positions := make([]Point, n)
		for i := range positions {
			positions[i] = Point{X: float64(i) * 3.0}
		}
		checkEquivalent(t, fmt.Sprintf("line-%d", n), positions, 3.0)
		checkEquivalent(t, fmt.Sprintf("line2hop-%d", n), positions, 6.0)
	}
	for _, n := range []int{3, 12, 100} {
		radius := float64(n) * 2.0 / (2 * math.Pi)
		positions := make([]Point, n)
		for i := range positions {
			theta := 2 * math.Pi * float64(i) / float64(n)
			positions[i] = Point{X: radius * math.Cos(theta), Y: radius * math.Sin(theta)}
		}
		checkEquivalent(t, fmt.Sprintf("ring-%d", n), positions, 2.05)
	}
}

// TestSpatialHashMatchesNaiveRandom sweeps randomized RGG layouts across
// sizes and densities, plus radio ranges chosen a hair above and below
// actual pairwise distances so the rangeEps boundary is exercised on both
// sides.
func TestSpatialHashMatchesNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xdecade, 0xfeed))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.IntN(400)
		side := 1.0 + rng.Float64()*100
		positions := make([]Point, n)
		for i := range positions {
			positions[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
		r := 0.5 + rng.Float64()*side/3
		checkEquivalent(t, fmt.Sprintf("rgg-trial%d", trial), positions, r)

		// Range exactly at (and epsilon around) a realised distance: the
		// accept/reject decision for that pair must match bit for bit.
		i, j := rng.IntN(n), rng.IntN(n)
		if i != j {
			d := positions[i].DistanceTo(positions[j])
			for _, rr := range []float64{d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)), d - rangeEps, d + rangeEps} {
				if rr > 0 && !math.IsInf(rr, 0) {
					checkEquivalent(t, fmt.Sprintf("rgg-trial%d-edge", trial), positions, rr)
				}
			}
		}
	}
}

// TestSpatialHashSparseFallback forces the sparse (map-bucketed) path:
// clusters separated by distances vastly larger than the radio range make
// a dense cell grid enormously bigger than n.
func TestSpatialHashSparseFallback(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	var positions []Point
	for c := 0; c < 8; c++ {
		cxo := float64(c%4) * 1e7
		cyo := float64(c/4) * 1e7
		for k := 0; k < 25; k++ {
			positions = append(positions, Point{X: cxo + rng.Float64()*10, Y: cyo + rng.Float64()*10})
		}
	}
	checkEquivalent(t, "sparse-clusters", positions, 2.5)
	// And an extreme spread with a tiny range.
	positions = append(positions, Point{X: 1e12, Y: -3e11})
	checkEquivalent(t, "sparse-extreme", positions, 0.001)
}

// TestNewGraphRejectsNonFinite is the bugfix table test: NaN/±Inf
// coordinates (or a non-finite radio range) must be rejected loudly
// instead of silently isolating the node.
func TestNewGraphRejectsNonFinite(t *testing.T) {
	ok := []Point{{0, 0}, {1, 1}}
	cases := []struct {
		name      string
		positions []Point
		r         float64
		wantErr   bool
	}{
		{"finite", ok, 2, false},
		{"nan-x", []Point{{math.NaN(), 0}, {1, 1}}, 2, true},
		{"nan-y", []Point{{0, 0}, {1, math.NaN()}}, 2, true},
		{"pos-inf-x", []Point{{math.Inf(1), 0}, {1, 1}}, 2, true},
		{"neg-inf-y", []Point{{0, 0}, {1, math.Inf(-1)}}, 2, true},
		{"nan-range", ok, math.NaN(), true},
		{"inf-range", ok, math.Inf(1), true},
		{"neg-range", ok, -1, true},
		{"zero-range", ok, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewGraph(tc.name, tc.positions, tc.r)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("NewGraph(%s) accepted non-finite input; degree(0)=%d", tc.name, len(g.Neighbors(0)))
				}
				return
			}
			if err != nil {
				t.Fatalf("NewGraph(%s): %v", tc.name, err)
			}
		})
	}
}

// TestEdgesConnectedMatchesBFS pins the union-find connectivity check used
// by RandomGeometric against the Graph BFS definition on random layouts.
func TestEdgesConnectedMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 23))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.IntN(120)
		positions := make([]Point, n)
		for i := range positions {
			positions[i] = Point{X: rng.Float64() * 40, Y: rng.Float64() * 40}
		}
		r := 1 + rng.Float64()*8
		edges, degree := unitDiskEdges(positions, r)
		g := assembleGraph("uf", positions, r, edges, degree)
		if got, want := new(scan).connected(n, edges), g.Connected(); got != want {
			t.Fatalf("trial %d: scan.connected=%v but BFS Connected=%v (n=%d r=%.3f)", trial, got, want, n, r)
		}
	}
}

// FuzzSpatialHashEquivalence fuzzes degenerate layouts — co-located
// points, all-isolated scatters, one giant component, huge coordinate
// spreads — and requires the spatial-hash CSR to stay byte-identical to
// the naive reference.
func FuzzSpatialHashEquivalence(f *testing.F) {
	// Co-located points.
	f.Add(uint64(1), 8, 0.0, 5.0)
	// All isolated: spacing far beyond range.
	f.Add(uint64(2), 16, 1e6, 0.5)
	// One giant component: dense cloud, generous range.
	f.Add(uint64(3), 64, 10.0, 30.0)
	// Extreme spread with moderate range (sparse bucket path).
	f.Add(uint64(4), 32, 1e15, 3.0)
	f.Fuzz(func(t *testing.T, seed uint64, n int, side, radioRange float64) {
		if n < 1 || n > 256 {
			return
		}
		if !(radioRange > 0) || math.IsInf(radioRange, 0) {
			return
		}
		if math.IsNaN(side) || math.IsInf(side, 0) || math.Abs(side) > 1e300 {
			return
		}
		rng := rand.New(rand.NewPCG(seed, 99))
		positions := make([]Point, n)
		for i := range positions {
			positions[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
		// A quarter of the layouts collapse half their points onto point 0
		// to stress co-location inside one bucket.
		if seed%4 == 0 {
			for i := 1; i < n; i += 2 {
				positions[i] = positions[0]
			}
		}
		checkEquivalent(t, "fuzz", positions, radioRange)
	})
}

// TestRejectedLayoutsReuseScan: RandomGeometric scans every layout it
// draws on one scratch, so a layout it rejects leaves every scratch slice
// (and the bucket map) on the backing array the first rejected layout
// left it on. The graphs are 500-node layouts at 1.8 grid spacings of
// range, where more than one seed in four needs a second layout; the test
// takes the first seed that needs three or more.
func TestRejectedLayoutsReuseScan(t *testing.T) {
	const n = 500
	side := math.Sqrt(n) * DefaultSpacing
	radioRange := 1.8 * DefaultSpacing
	for seed := uint64(1); seed < 400; seed++ {
		var sc scan
		var first []uintptr // backing arrays after the first rejection
		rejections := 0
		if _, err := randomGeometric(n, side, side, radioRange, seed, &sc, func() {
			rejections++
			arrays := scratchArrays(&sc)
			if first == nil {
				first = arrays
				return
			}
			for i := range arrays {
				if arrays[i] != first[i] {
					t.Errorf("seed %d: rejected layout %d moved scratch %d to a new array", seed, rejections, i)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if rejections >= 2 {
			if first[0] == 0 {
				t.Fatalf("seed %d: the rejected layouts filled no scratch", seed)
			}
			return
		}
	}
	t.Fatal("no seed below 400 needs 3+ layouts")
}

// scratchArrays returns the address of the array behind each of the
// scan's slices and of its bucket map (0 when unset).
func scratchArrays(sc *scan) []uintptr {
	var out []uintptr
	for _, v := range []any{sc.degree, sc.cx, sc.cy, sc.start, sc.next, sc.ids, sc.edges, sc.parent, sc.buckets} {
		out = append(out, reflect.ValueOf(v).Pointer())
	}
	return out
}
