package attacker

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"slpdas/internal/topo"
)

// Strategy is one attacker decision behaviour — the D of the
// (R, H, M, s0, D)-attacker, packaged so hunts can be parameterised by
// name. A Strategy instance belongs to exactly one attacker: strategies
// may keep state across decisions (Backtrack does), so every eavesdropper
// gets a fresh instance from its Factory.
type Strategy interface {
	// Decide is the Decide action of Figure 1, the D function: given the
	// messages captured this round, the H-window of departed locations
	// (most recent last) and the current location, it returns the next
	// location. Returning cur means "stay" (which still consumes a move).
	// heard and history are the attacker's live buffers, valid only
	// during the call: Decide must neither modify nor keep them.
	Decide(heard []Heard, history []topo.NodeID, cur topo.NodeID, rng *rand.Rand) topo.NodeID
}

// GraphAware strategies are bound to the hunt's topology and start
// location once, before the first decision. RandomWalk needs the
// neighbourhood structure; Cautious precomputes the hop gradient from s0.
type GraphAware interface {
	Bind(g *topo.Graph, start topo.NodeID)
}

// PeriodAware strategies are consulted at every period boundary (the
// NextP action): PeriodEnd reports whether the attacker relocated during
// the period that just ended and returns a relocation target for the
// boundary itself — the previous location for Backtrack's retreat, or cur
// to stay put. Boundary moves do not consume the new period's move
// budget: the attacker walks during the silence between periods.
type PeriodAware interface {
	PeriodEnd(moved bool, cur topo.NodeID) topo.NodeID
}

// Factory creates a fresh Strategy instance for one attacker.
type Factory func() Strategy

// DefaultStrategy is the name of the paper's first-heard attacker: the
// strategy of core.Default, and the one an unnamed campaign or CLI
// strategy resolves to.
const DefaultStrategy = "first-heard"

// Entry is one named strategy: a one-line summary for listings and the
// factory of its per-attacker instances.
type Entry struct {
	Name    string
	Summary string
	New     Factory
}

// strategies is every named strategy, declared in name order: Strategies
// and StrategyNames list it as it stands.
var strategies = [...]Entry{
	{"backtrack", "first-heard, retreating one hop along its trail per silent period",
		func() Strategy { return &Backtrack{} }},
	{"cautious", "move only to origins strictly farther from s0 (never lured backwards)",
		func() Strategy { return &Cautious{} }},
	{DefaultStrategy, "move to the origin of the first message heard (the paper's D)",
		func() Strategy { return FirstHeard{} }},
	{"patient", "commit only once an origin is heard twice in the R-buffer (needs R >= 2)",
		func() Strategy { return Patient{} }},
	{"random-heard", "move to a uniformly random heard origin",
		func() Strategy { return RandomHeard{} }},
	{"random-walk", "uniform random neighbour each decision; the noise-floor baseline",
		func() Strategy { return &RandomWalk{} }},
	{"unvisited-first", "first heard origin not in the H-window, falling back to first heard",
		func() Strategy { return UnvisitedFirst{} }},
}

// Strategies lists every named strategy, sorted by name.
func Strategies() []Entry { return slices.Clone(strategies[:]) }

// StrategyNames lists the strategy names, sorted.
func StrategyNames() []string {
	out := make([]string, len(strategies))
	for i := range strategies {
		out[i] = strategies[i].Name
	}
	return out
}

// ByName resolves a strategy name to its table entry.
func ByName(name string) (Entry, error) {
	for i := range strategies {
		if strategies[i].Name == name {
			return strategies[i], nil
		}
	}
	return Entry{}, fmt.Errorf("attacker: unknown strategy %q (have %v)", name, StrategyNames())
}

// Patient commits only to corroborated origins: it moves to the origin
// heard most often in the R-message buffer, and only once some origin has
// been heard at least twice. With R = 1 no origin can corroborate, so a
// patient attacker needs R >= 2 to ever leave s0 — the paper's trade-off
// between reaction speed and resistance to decoy traffic.
type Patient struct{}

// Decide implements Strategy.
func (Patient) Decide(heard []Heard, _ []topo.NodeID, cur topo.NodeID, _ *rand.Rand) topo.NodeID {
	best, bestCount := cur, 1
	for _, h := range heard {
		count := 0
		for _, other := range heard {
			if other.From == h.From {
				count++
			}
		}
		// Strictly-greater keeps the earliest origin on ties, so the
		// decision is deterministic in arrival order.
		if count > bestCount {
			best, bestCount = h.From, count
		}
	}
	return best
}

// Backtrack chases like first-heard but retreats along its own approach
// trail when a TDMA period yields no relocation — silence suggests the
// gradient led into a dead end (a decoy path), so it walks back one hop
// per silent period and resumes the chase from there.
type Backtrack struct {
	trail []topo.NodeID
}

// Decide implements Strategy: first-heard, recording the approach trail.
func (b *Backtrack) Decide(heard []Heard, _ []topo.NodeID, cur topo.NodeID, _ *rand.Rand) topo.NodeID {
	if len(heard) == 0 {
		return cur
	}
	next := heard[0].From
	if next != cur {
		b.trail = append(b.trail, cur)
	}
	return next
}

// PeriodEnd implements PeriodAware: after a silent period, pop the trail.
func (b *Backtrack) PeriodEnd(moved bool, cur topo.NodeID) topo.NodeID {
	if moved || len(b.trail) == 0 {
		return cur
	}
	prev := b.trail[len(b.trail)-1]
	b.trail = b.trail[:len(b.trail)-1]
	return prev
}

// RandomWalk ignores overheard traffic entirely and steps to a uniformly
// random neighbour on every decision — the noise-floor baseline: any
// strategy that cannot beat a random walker extracts nothing from the
// traffic pattern.
type RandomWalk struct {
	g *topo.Graph
}

// Bind implements GraphAware.
func (w *RandomWalk) Bind(g *topo.Graph, _ topo.NodeID) { w.g = g }

// Decide implements Strategy.
func (w *RandomWalk) Decide(_ []Heard, _ []topo.NodeID, cur topo.NodeID, rng *rand.Rand) topo.NodeID {
	ns := w.g.Neighbors(cur)
	if len(ns) == 0 {
		return cur
	}
	return ns[rng.IntN(len(ns))]
}

// Cautious only commits to moves that strictly increase its hop distance
// from s0: the hunt starts at the sink, and data traffic radiates inward
// from the source, so an origin that sounds strictly closer to the source
// is one strictly farther from the start. A cautious attacker never
// retreats or sidesteps — it cannot be lured back by decoy traffic behind
// it, at the price of stalling whenever every audible origin is lateral.
type Cautious struct {
	dist []int // hop distance from s0, by node
}

// Bind implements GraphAware: precompute the gradient from the start.
func (c *Cautious) Bind(g *topo.Graph, start topo.NodeID) { c.dist = g.BFSFrom(start) }

// Decide implements Strategy.
func (c *Cautious) Decide(heard []Heard, _ []topo.NodeID, cur topo.NodeID, _ *rand.Rand) topo.NodeID {
	for _, h := range heard {
		if c.dist[h.From] > c.dist[cur] {
			return h.From
		}
	}
	return cur
}
