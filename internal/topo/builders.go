package topo

import (
	"fmt"
	"math"

	"slpdas/internal/xrand"
)

// DefaultSpacing is the inter-node spacing used in the paper's evaluation
// (Section VI-A): 4.5 m, "allowing only for vertical and horizontal
// messages transmission".
const DefaultSpacing = 4.5

// Grid builds the paper's square-grid topology: side×side nodes in row-major
// order with the given spacing, connected iff within radioRange. With
// radioRange == spacing only the four cardinal neighbours are in range,
// matching the paper's layout.
func Grid(side int, spacing, radioRange float64) (*Graph, error) {
	if side < 2 {
		return nil, fmt.Errorf("topo: grid side must be at least 2, got %d", side)
	}
	positions := make([]Point, 0, side*side)
	for row := 0; row < side; row++ {
		for col := 0; col < side; col++ {
			positions = append(positions, Point{X: float64(col) * spacing, Y: float64(row) * spacing})
		}
	}
	return NewGraph(fmt.Sprintf("grid-%dx%d", side, side), positions, radioRange)
}

// DefaultGrid builds a side×side grid with the paper's default spacing and a
// radio range equal to the spacing (4-neighbour connectivity).
func DefaultGrid(side int) (*Graph, error) {
	return Grid(side, DefaultSpacing, DefaultSpacing)
}

// GridIndex returns the NodeID at (row, col) of a side×side grid.
func GridIndex(side, row, col int) NodeID {
	return NodeID(row*side + col)
}

// GridCentre returns the centre node of a side×side grid, the paper's sink
// placement. For even sides it is the upper-left of the four central nodes.
func GridCentre(side int) NodeID {
	return GridIndex(side, side/2, side/2)
}

// GridTopLeft returns node (0,0), the paper's source placement.
func GridTopLeft() NodeID { return 0 }

// Line builds an n-node line topology with the given spacing and range.
func Line(n int, spacing, radioRange float64) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topo: line needs at least 2 nodes, got %d", n)
	}
	positions := make([]Point, n)
	for i := range positions {
		positions[i] = Point{X: float64(i) * spacing}
	}
	return NewGraph(fmt.Sprintf("line-%d", n), positions, radioRange)
}

// Ring builds an n-node ring topology: nodes evenly spaced on a circle with
// circumference n*spacing, radio range chosen by the caller. With
// radioRange slightly above spacing each node has exactly two neighbours.
func Ring(n int, spacing, radioRange float64) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("topo: ring needs at least 3 nodes, got %d", n)
	}
	radius := float64(n) * spacing / (2 * math.Pi)
	positions := make([]Point, n)
	for i := range positions {
		theta := 2 * math.Pi * float64(i) / float64(n)
		positions[i] = Point{X: radius * math.Cos(theta), Y: radius * math.Sin(theta)}
	}
	return NewGraph(fmt.Sprintf("ring-%d", n), positions, radioRange)
}

// RandomGeometric builds an n-node random geometric graph: positions drawn
// uniformly from a width×height rectangle, connected iff within radioRange.
// The layout is deterministic for a given seed. It retries a bounded number
// of times to obtain a connected graph and returns an error otherwise.
func RandomGeometric(n int, width, height, radioRange float64, seed uint64) (*Graph, error) {
	var sc scan // one scratch for every attempt
	return randomGeometric(n, width, height, radioRange, seed, &sc, nil)
}

// randomGeometric is RandomGeometric on the scratch sc, calling rejected
// (when non-nil) after each layout it turns down.
func randomGeometric(n int, width, height, radioRange float64, seed uint64, sc *scan, rejected func()) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topo: random geometric graph needs at least 2 nodes, got %d", n)
	}
	// Raw PCG seeding, not xrand's label mixing: this stream layout
	// predates xrand and is pinned by the committed topology goldens.
	rng := xrand.NewRaw(seed, 0x9e3779b97f4a7c15)
	const maxAttempts = 64
	positions := make([]Point, n)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		for i := range positions {
			positions[i] = Point{X: rng.Float64() * width, Y: rng.Float64() * height}
		}
		if err := validateGraphInput(positions, radioRange); err != nil {
			return nil, err
		}
		// Rejected layouts only pay for the raw edge scan plus a
		// union-find connectivity pass, on the scratch the first attempt
		// allocated — CSR assembly (the allocation-heavy half of
		// construction) happens once, on the accepted layout.
		edges, degree := sc.unitDiskEdges(positions, radioRange)
		if !sc.connected(n, edges) {
			if rejected != nil {
				rejected()
			}
			continue
		}
		return assembleGraph(fmt.Sprintf("rgg-%d", n), positions, radioRange, edges, degree), nil
	}
	return nil, fmt.Errorf("topo: failed to build a connected random geometric graph (n=%d range=%.2f) after %d attempts", n, radioRange, maxAttempts)
}
