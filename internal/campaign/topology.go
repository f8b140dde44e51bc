package campaign

import (
	"fmt"
	"math"
	"sync"

	"slpdas/internal/topo"
)

// TopologyKind names a topology family from internal/topo/builders.go.
type TopologyKind string

// Supported topology kinds.
const (
	// KindGrid is the paper's square grid: source top-left, sink centre.
	KindGrid TopologyKind = "grid"
	// KindLine is a line: sink at the middle node, source at one end.
	KindLine TopologyKind = "line"
	// KindRing is a ring: sink and source diametrically opposite.
	KindRing TopologyKind = "ring"
	// KindRGG is a connected random geometric graph: sink at the node
	// nearest the area centre, source at the hop-farthest node from it.
	KindRGG TopologyKind = "rgg"
)

// TopologySpec declaratively names one topology cell of the matrix. It is
// comparable, so the engine can cache built graphs across cells.
type TopologySpec struct {
	Kind TopologyKind
	// Size is the grid side for KindGrid, the node count otherwise.
	Size int
	// Seed fixes node placement for KindRGG; ignored elsewhere. It is a
	// layout coordinate, independent of the campaign's simulation seeds.
	Seed uint64
}

// Label identifies the topology in result rows, e.g. "grid-11x11",
// "ring-30", "rgg-40#7".
func (t TopologySpec) Label() string {
	switch t.Kind {
	case KindGrid, "":
		return fmt.Sprintf("grid-%dx%d", t.Size, t.Size)
	case KindRGG:
		return fmt.Sprintf("rgg-%d#%d", t.Size, t.Seed)
	default:
		return fmt.Sprintf("%s-%d", t.Kind, t.Size)
	}
}

// gridSize returns the grid side for grid cells and 0 otherwise, feeding
// the GridSize coordinate of rows and experiment.Spec.
func (t TopologySpec) gridSize() int {
	if t.Kind == KindGrid || t.Kind == "" {
		return t.Size
	}
	return 0
}

// minSize is the smallest size each topology kind builds.
var minSize = map[TopologyKind]int{"": 2, KindGrid: 2, KindLine: 2, KindRing: 3, KindRGG: 2}

// check refuses an unknown kind and a size its builder would refuse,
// without building anything.
func (t TopologySpec) check() error {
	min, ok := minSize[t.Kind]
	if !ok {
		return fmt.Errorf("campaign: unknown topology kind %q", t.Kind)
	}
	if t.Size < min {
		return fmt.Errorf("campaign: topology %s: size must be at least %d", t.Label(), min)
	}
	return nil
}

// builtTopology is a materialised TopologySpec.
type builtTopology struct {
	g      *topo.Graph
	sink   topo.NodeID
	source topo.NodeID
}

// topoCache memoises built topologies across campaigns for the lifetime of
// the process. TopologySpec is a pure value coordinate and Graph is
// immutable, so one build serves every cell of every campaign that names
// the same spec — a Figure 5/6-style grid that re-sweeps the same
// topologies pays construction (including the two-hop CSR the schedule
// checks touch) exactly once. Guarded by a mutex: builds are rare and the
// engine resolves topologies once per campaign, not per run.
var topoCache = struct {
	mu sync.Mutex
	m  map[TopologySpec]*builtTopology
}{m: make(map[TopologySpec]*builtTopology)}

// resolve returns the cached build for t, constructing and caching it on
// first use. Failures are not cached (they are cheap to re-diagnose).
func (t TopologySpec) resolve() (*builtTopology, error) {
	topoCache.mu.Lock()
	defer topoCache.mu.Unlock()
	if bt, ok := topoCache.m[t]; ok {
		return bt, nil
	}
	bt, err := t.build()
	if err != nil {
		return nil, err
	}
	topoCache.m[t] = bt
	return bt, nil
}

// ResetTopologyCache drops every memoised topology, forcing the next
// campaign to rebuild from scratch. Exposed for tests (cache-cold vs
// cache-warm determinism) and for long-lived processes that sweep many
// one-off RGG layouts and want the memory back.
func ResetTopologyCache() {
	topoCache.mu.Lock()
	defer topoCache.mu.Unlock()
	topoCache.m = make(map[TopologySpec]*builtTopology)
}

func (t TopologySpec) build() (*builtTopology, error) {
	switch t.Kind {
	case KindGrid, "":
		g, err := topo.DefaultGrid(t.Size)
		if err != nil {
			return nil, err
		}
		return &builtTopology{g: g, sink: topo.GridCentre(t.Size), source: topo.GridTopLeft()}, nil
	case KindLine:
		g, err := topo.Line(t.Size, topo.DefaultSpacing, topo.DefaultSpacing)
		if err != nil {
			return nil, err
		}
		return &builtTopology{g: g, sink: topo.NodeID(t.Size / 2), source: 0}, nil
	case KindRing:
		// Range 1.05× spacing keeps exactly two neighbours per node.
		g, err := topo.Ring(t.Size, topo.DefaultSpacing, topo.DefaultSpacing*1.05)
		if err != nil {
			return nil, err
		}
		return &builtTopology{g: g, sink: topo.NodeID(t.Size / 2), source: 0}, nil
	case KindRGG:
		// Area scales with node count to hold density roughly constant;
		// range 1.8× spacing makes connectivity likely at that density.
		side := math.Sqrt(float64(t.Size)) * topo.DefaultSpacing
		g, err := topo.RandomGeometric(t.Size, side, side, topo.DefaultSpacing*1.8, t.Seed)
		if err != nil {
			return nil, err
		}
		sink := nearestTo(g, topo.Point{X: side / 2, Y: side / 2})
		source := hopFarthest(g, sink)
		return &builtTopology{g: g, sink: sink, source: source}, nil
	default:
		return nil, fmt.Errorf("campaign: unknown topology kind %q", t.Kind)
	}
}

func nearestTo(g *topo.Graph, p topo.Point) topo.NodeID {
	best, bestDist := topo.NodeID(0), math.Inf(1)
	for i := 0; i < g.Len(); i++ {
		if d := g.Position(topo.NodeID(i)).DistanceTo(p); d < bestDist {
			best, bestDist = topo.NodeID(i), d
		}
	}
	return best
}

func hopFarthest(g *topo.Graph, from topo.NodeID) topo.NodeID {
	dist := g.BFSFrom(from)
	best, bestHops := from, -1
	for i, d := range dist {
		if d > bestHops {
			best, bestHops = topo.NodeID(i), d
		}
	}
	return best
}
