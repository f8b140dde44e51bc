package protocol

import (
	"math"
	"math/rand/v2"

	"slpdas/internal/topo"
	"slpdas/internal/xrand"
)

// phantomWalk is sector phantom routing (PSSPR, see PAPERS.md): every
// source message first random-walks SearchDistance hops *away* from the
// sink inside a per-message directed sector, reaching a phantom source,
// and only then follows the shortest path to the sink. An eavesdropper
// back-tracing the traffic converges on the phantom sources — scattered
// around the real source at walk-length radius — rather than the source
// itself.
//
// The data phase is event-driven: the TDMA schedule is still built (all
// families share the control plane) but slot tasks stay unarmed; the only
// DATA traffic is the per-period route broadcasts, spaced one slot apart
// hop by hop. A walk lives for one run: startPhantom builds it.
type phantomWalk struct {
	env  *Env
	hops int // walk length: the run's SearchDistance
	pcg  rand.PCG
	rng  *rand.Rand
}

// startPhantom is phantom's StartData: one source message per TDMA
// period, each walking on the run's "phantom" stream.
func startPhantom(h Host, env *Env, p Params, seed uint64) error {
	w := &phantomWalk{env: env, hops: p.SearchDistance}
	w.pcg.Seed(xrand.Seeds(seed, 0x7068616e746f6d))
	w.rng = xrand.Wrap(&w.pcg)
	return perPeriod(h, p, func(seq uint32) {
		_ = scheduleRoute(h, w.buildRoute(), env.Source, seq, p.SlotDuration)
	})
}

// buildRoute computes one message's transmitter chain: the directed random
// walk, then the descent to the sink. The sink itself never appears — it
// receives the final hop's broadcast.
func (w *phantomWalk) buildRoute() []topo.NodeID {
	g, dist := w.env.Graph, w.env.SinkDist
	// The PSSPR sector: a per-message random direction; walk steps prefer
	// neighbours whose displacement projects positively onto it.
	theta := w.rng.Float64() * 2 * math.Pi
	dx, dy := math.Cos(theta), math.Sin(theta)

	cur, prev := w.env.Source, topo.None
	route := make([]topo.NodeID, 0, w.hops+dist[w.env.Source])
	route = append(route, cur)
	for i := 0; i < w.hops; i++ {
		next := w.walkStep(cur, prev, dx, dy)
		if next == topo.None {
			break
		}
		prev, cur = cur, next
		route = append(route, cur)
	}
	return descend(route, g, dist, cur)
}

// walkStep picks the next hop of the directed walk: among neighbours that
// do not step back towards the sink (hop distance non-decreasing) and are
// not the previous hop, prefer those inside the message's sector, chosen
// uniformly; fall back to any non-approaching neighbour, then stall.
func (w *phantomWalk) walkStep(cur, prev topo.NodeID, dx, dy float64) topo.NodeID {
	g, dist := w.env.Graph, w.env.SinkDist
	pos := g.Position(cur)
	var away, sector []topo.NodeID
	for _, m := range g.Neighbors(cur) {
		if m == prev || dist[m] < dist[cur] {
			continue
		}
		away = append(away, m)
		q := g.Position(m)
		if (q.X-pos.X)*dx+(q.Y-pos.Y)*dy > 0 {
			sector = append(sector, m)
		}
	}
	cands := sector
	if len(cands) == 0 {
		cands = away
	}
	if len(cands) == 0 {
		return topo.None
	}
	return cands[w.rng.IntN(len(cands))]
}
