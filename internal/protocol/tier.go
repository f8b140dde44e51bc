package protocol

import (
	"math/rand/v2"
	"time"

	"slpdas/internal/topo"
	"slpdas/internal/xrand"
)

// tierDistCacheCap bounds the per-instance gradient cache: a gradient is a
// full BFS slice, so an unbounded cache on a large topology would hold
// O(n^2) ints. The cap only affects recomputation cost, never routing
// decisions, so it cannot drift results.
const tierDistCacheCap = 128

// tierInstance runs tier-based intermediary routing (GAPs-style): the
// topology is banded into tiers by sink hop distance, and every source
// message detours through a uniformly random node of a uniformly random
// tier before descending to the sink. Back-traced traffic therefore fans
// out over the whole network instead of converging on the source.
type tierInstance struct {
	env *Env
	p   Params
	pcg rand.PCG
	rng *rand.Rand
	// tiers groups node IDs by sink hop distance (tiers[d] is ring d); a
	// pure function of the topology, built once per network.
	tiers [][]topo.NodeID
	// distCache memoizes BFS gradients rooted at recently used
	// intermediaries for the source→intermediary leg.
	distCache map[topo.NodeID][]int
}

// Reset implements Instance: rebind the world, reseed the tier stream, and
// rebuild the tier index only when the topology changed.
func (ti *tierInstance) Reset(env *Env, p Params, seed uint64) {
	if ti.env != env {
		ti.env = env
		ti.tiers = buildTiers(env)
		ti.distCache = make(map[topo.NodeID][]int)
	}
	ti.p = p
	ti.pcg.Seed(xrand.Seeds(seed, 0x74696572))
	if ti.rng == nil {
		ti.rng = xrand.Wrap(&ti.pcg)
	}
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

// StartData implements Instance: one source message per TDMA period, each
// detouring through a freshly drawn intermediary.
func (ti *tierInstance) StartData(h Host) error {
	for k := 0; k < ti.p.Periods; k++ {
		seq := uint32(k)
		at := ti.p.DataStart + time.Duration(k)*ti.p.Period
		if err := h.Schedule(at, func() {
			route := ti.buildRoute()
			_ = scheduleRoute(h, route, ti.env.Source, seq, ti.p.SlotDuration)
		}); err != nil {
			return err
		}
	}
	return nil
}

// buildRoute draws the message's intermediary and assembles the two-leg
// transmitter chain: source→intermediary along the intermediary's own BFS
// gradient, then intermediary→sink along the sink gradient. The sink never
// appears in the route — it receives the final hop's broadcast.
func (ti *tierInstance) buildRoute() []topo.NodeID {
	g, sinkDist := ti.env.Graph, ti.env.SinkDist
	mid := ti.pickIntermediary()
	route := make([]topo.NodeID, 0, 16)
	route = append(route, ti.env.Source)
	if mid != topo.None && mid != ti.env.Source {
		// Leg 1: descend the gradient rooted at the intermediary.
		route = descend(route, g, ti.gradient(mid), ti.env.Source)
		route = append(route, mid)
	}
	cur := route[len(route)-1]
	if cur == ti.env.Sink {
		return route[:len(route)-1]
	}
	return descend(route, g, sinkDist, cur)
}

// pickIntermediary draws a uniformly random tier, then a uniformly random
// node of it, rejecting the source and empty rings (a handful of retries,
// then fall back to direct routing).
func (ti *tierInstance) pickIntermediary() topo.NodeID {
	if len(ti.tiers) <= 1 {
		return topo.None
	}
	for try := 0; try < 8; try++ {
		ring := ti.tiers[1+ti.rng.IntN(len(ti.tiers)-1)]
		if len(ring) == 0 {
			continue
		}
		mid := ring[ti.rng.IntN(len(ring))]
		if mid != ti.env.Source {
			return mid
		}
	}
	return topo.None
}

// gradient returns the BFS hop-distance slice rooted at the given node,
// memoized across messages and runs (topology-pure).
func (ti *tierInstance) gradient(root topo.NodeID) []int {
	if d, ok := ti.distCache[root]; ok {
		return d
	}
	if len(ti.distCache) >= tierDistCacheCap {
		clear(ti.distCache)
	}
	d := ti.env.Graph.BFSFrom(root)
	ti.distCache[root] = d
	return d
}
