package protocol

import (
	"time"

	"slpdas/internal/topo"
)

// Tunables of the fake-source family, per the backbone-scheduling
// exemplar (SNIPPETS.md Snippet 1): a node d hops down the backbone stays
// an active fake source while fakeAlpha^d >= fakeCaptureThreshold — the
// estimated probability that luring the attacker to depth d still risks
// capture. With alpha 0.5 and threshold 1e-4 the backbone carries at most
// 13 active fake sources.
const (
	fakeAlpha            = 0.5
	fakeCaptureThreshold = 1e-4
)

// buildBackbone walks greedily from the sink towards the node farthest
// from the real source (the anti-source), keeping the nodes whose depth d
// satisfies alpha^d >= the capture threshold. Ties break towards the
// lowest node ID via the sorted neighbour order, so the backbone is
// deterministic.
func buildBackbone(env *Env) []topo.NodeID {
	g, srcDist := env.Graph, env.SourceDist()
	maxDepth := 0
	for p := fakeAlpha; p >= fakeCaptureThreshold; p *= fakeAlpha {
		maxDepth++
	}
	var backbone []topo.NodeID
	cur := env.Sink
	for d := 1; d <= maxDepth; d++ {
		next := topo.None
		for _, m := range g.Neighbors(cur) {
			if m == env.Source {
				continue
			}
			if next == topo.None || srcDist[m] > srcDist[next] {
				next = m
			}
		}
		// Stop at a local maximum: stepping back towards the source would
		// lure the attacker the wrong way.
		if next == topo.None || srcDist[next] <= srcDist[cur] {
			break
		}
		cur = next
		backbone = append(backbone, cur)
	}
	return backbone
}

// startFakeSource is fake-source's StartData. The real traffic is the
// unmodified TDMA convergecast, but a backbone of nodes leading *away*
// from the real source broadcasts decoy DATA at the start of every
// period — before any real slot fires — so a traffic-tracing attacker at
// the sink hears the backbone first and is drawn outward along it,
// period by period, away from the source. Every period, each backbone
// node broadcasts one fake DATA frame within the first slot, deepest node
// first: the attacker, wherever it stands on the backbone, hears its
// outward neighbour before its inward one, and before any real traffic.
// The decoys carry their own node as wire origin, so the sink never
// mistakes them for source deliveries. The family draws no randomness.
func startFakeSource(h Host, env *Env, p Params, _ uint64) error {
	backbone := buildBackbone(env)
	n := len(backbone)
	if n == 0 {
		return nil
	}
	for k := 0; k < p.Periods; k++ {
		seq := uint32(k)
		start := p.DataStart + time.Duration(k)*p.Period
		for idx, f := range backbone {
			f := f
			// Offsets strictly inside slot 0, ordered deepest-first.
			at := start + p.SlotDuration*time.Duration(n-idx)/time.Duration(n+1)
			if err := h.Schedule(at, func() {
				h.SendData(f, f, seq, 1)
			}); err != nil {
				return err
			}
		}
	}
	return nil
}
