package protocol

import (
	"math/rand/v2"

	"slpdas/internal/topo"
	"slpdas/internal/xrand"
)

// tierDistCacheCap bounds the run's gradient memo: a gradient is a full
// BFS slice, so an unbounded memo on a large topology would hold O(n^2)
// ints. The cap only affects recomputation cost, never routing decisions.
const tierDistCacheCap = 128

// tierRouter is tier-based intermediary routing (GAPs-style): the
// topology is banded into tiers by sink hop distance, and every source
// message detours through a uniformly random node of a uniformly random
// tier before descending to the sink. Back-traced traffic therefore fans
// out over the whole network instead of converging on the source. A
// router lives for one run: startTier builds it.
type tierRouter struct {
	env *Env
	pcg rand.PCG
	rng *rand.Rand
	// tiers groups node IDs by sink hop distance (tiers[d] is ring d).
	tiers [][]topo.NodeID
	// distCache memoizes BFS gradients rooted at recently used
	// intermediaries for the source→intermediary leg.
	distCache map[topo.NodeID][]int
}

// startTier is tier's StartData: one source message per TDMA period, each
// detouring through an intermediary drawn from the run's "tier" stream.
func startTier(h Host, env *Env, p Params, seed uint64) error {
	tr := &tierRouter{env: env, tiers: buildTiers(env), distCache: make(map[topo.NodeID][]int)}
	tr.pcg.Seed(xrand.Seeds(seed, 0x74696572))
	tr.rng = xrand.Wrap(&tr.pcg)
	return perPeriod(h, p, func(seq uint32) {
		_ = scheduleRoute(h, tr.buildRoute(), env.Source, seq, p.SlotDuration)
	})
}

// buildTiers bands the nodes into rings by sink hop distance. Ring 0 (the
// sink itself) is kept empty: detouring through the sink is no detour.
func buildTiers(env *Env) [][]topo.NodeID {
	max := 0
	for _, d := range env.SinkDist {
		if d > max {
			max = d
		}
	}
	tiers := make([][]topo.NodeID, max+1)
	for id, d := range env.SinkDist {
		if d == 0 {
			continue
		}
		tiers[d] = append(tiers[d], topo.NodeID(id))
	}
	return tiers
}

// buildRoute draws the message's intermediary and assembles the two-leg
// transmitter chain: source→intermediary along the intermediary's own BFS
// gradient, then intermediary→sink along the sink gradient. The sink never
// appears in the route — it receives the final hop's broadcast.
func (tr *tierRouter) buildRoute() []topo.NodeID {
	g, sinkDist := tr.env.Graph, tr.env.SinkDist
	mid := tr.pickIntermediary()
	route := make([]topo.NodeID, 0, 16)
	route = append(route, tr.env.Source)
	if mid != topo.None && mid != tr.env.Source {
		// Leg 1: descend the gradient rooted at the intermediary.
		route = descend(route, g, tr.gradient(mid), tr.env.Source)
		route = append(route, mid)
	}
	cur := route[len(route)-1]
	if cur == tr.env.Sink {
		return route[:len(route)-1]
	}
	return descend(route, g, sinkDist, cur)
}

// pickIntermediary draws a uniformly random tier, then a uniformly random
// node of it, rejecting the source and empty rings (a handful of retries,
// then fall back to direct routing).
func (tr *tierRouter) pickIntermediary() topo.NodeID {
	if len(tr.tiers) <= 1 {
		return topo.None
	}
	for try := 0; try < 8; try++ {
		ring := tr.tiers[1+tr.rng.IntN(len(tr.tiers)-1)]
		if len(ring) == 0 {
			continue
		}
		mid := ring[tr.rng.IntN(len(ring))]
		if mid != tr.env.Source {
			return mid
		}
	}
	return topo.None
}

// gradient returns the BFS hop-distance slice rooted at the given node,
// memoized across the run's messages.
func (tr *tierRouter) gradient(root topo.NodeID) []int {
	if d, ok := tr.distCache[root]; ok {
		return d
	}
	if len(tr.distCache) >= tierDistCacheCap {
		clear(tr.distCache)
	}
	d := tr.env.Graph.BFSFrom(root)
	tr.distCache[root] = d
	return d
}
