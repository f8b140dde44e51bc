package core

import (
	"math/rand/v2"
	"sort"
	"time"

	"slpdas/internal/gcn"
	"slpdas/internal/topo"
	"slpdas/internal/wire"
	"slpdas/internal/xrand"
)

// info is one Ninfo entry: a (hop, slot) pair with a freshness version.
type info struct {
	hop     int32
	slot    int32
	version uint32
}

const noValue int32 = wire.NoSlot // ⊥

// infoTable is a node's Ninfo: (hop, slot, version) entries keyed by node
// ID, stored as parallel slices kept sorted by ID. The table is consulted
// on every guard evaluation of the GCN run-to-quiescence loop (the
// collision-resolution guard scans it after every delivered message), so
// it is built for allocation-free sorted iteration — the map + sort.Slice
// it replaces was the simulator's single hottest call site.
type infoTable struct {
	ids   []topo.NodeID
	infos []info
}

func (t *infoTable) len() int { return len(t.ids) }

func (t *infoTable) search(id topo.NodeID) int {
	return sort.Search(len(t.ids), func(k int) bool { return t.ids[k] >= id })
}

func (t *infoTable) get(id topo.NodeID) (info, bool) {
	if i := t.search(id); i < len(t.ids) && t.ids[i] == id {
		return t.infos[i], true
	}
	return info{}, false
}

func (t *infoTable) set(id topo.NodeID, in info) {
	i := t.search(id)
	if i < len(t.ids) && t.ids[i] == id {
		t.infos[i] = in
		return
	}
	t.ids = append(t.ids, 0)
	copy(t.ids[i+1:], t.ids[i:])
	t.ids[i] = id
	t.infos = append(t.infos, info{})
	copy(t.infos[i+1:], t.infos[i:])
	t.infos[i] = in
}

func (t *infoTable) reset() {
	t.ids = t.ids[:0]
	t.infos = t.infos[:0]
}

// node executes the combined DAS / NSearch / SRefine program of
// Figures 2–4 for one WSN process. Construction wires the immutable parts
// (GCN actions, timers, radio receiver); everything else is per-run state
// rewound by reset, so one node serves every run of an arena network.
type node struct {
	id      topo.NodeID  // lint:immutable: identity, fixed at construction
	net     *Network     // lint:immutable: back-pointer wiring, fixed at construction
	prc     *gcn.Process // lint:immutable: pointer fixed; process reset separately
	pcg     rand.PCG     // owned so reset can reseed in place
	rng     *rand.Rand   // lint:immutable: wraps &pcg; reset reseeds the pcg in place
	helloFn func()       // lint:immutable: cached method value; scheduled once per NDP round

	// --- Figure 2 (DAS) state ---
	myN      []topo.NodeID                        // discovered neighbours, sorted
	npar     map[topo.NodeID]bool                 // potential parents
	children map[topo.NodeID]bool                 // nodes that chose us as parent
	others   map[topo.NodeID]map[topo.NodeID]bool // per potential parent: slot competitors
	ninfo    infoTable                            // 1- and 2-hop neighbourhood info
	hop      int32                                // ⊥ = noValue
	par      topo.NodeID                          // ⊥ = topo.None
	slot     int32                                // ⊥ = noValue
	normal   bool                                 // false during the update phase
	version  uint32                               // own state freshness

	dissem       *gcn.Timer // lint:immutable: pointer fixed; timer disarmed by the engine reset
	decide       *gcn.Timer // lint:immutable: pointer fixed; defers the process action one dissem round
	dissemBudget int

	// --- Figure 3 (NSearch) state ---
	from      map[topo.NodeID]bool // senders of SEARCH/CHANGE seen
	startNode bool
	pr        int32 // change-path length when selected

	// --- Figure 4 / data phase ---
	changed       bool // slot altered by Phase 3
	pendingOrigin topo.NodeID
	pendingSeq    uint32
	pendingCount  uint16
	dataPeriod    int

	// dead marks a crashed node (fault injection): radio silent via the
	// medium, computation stopped via the GCN process, and the TDMA slot
	// task skips its periods through the alive check.
	dead bool

	// Energy accounting (Config.Energy runs only; both stay zero
	// otherwise). energyUsed is the cumulative spend in mJ; energyDead
	// latches battery depletion — unlike a churn crash it is permanent,
	// recovery cannot resurrect a flat battery.
	energyUsed float64
	energyDead bool
}

func newNode(id topo.NodeID, net *Network) *node {
	n := &node{
		id:       id,
		net:      net,
		npar:     make(map[topo.NodeID]bool),
		children: make(map[topo.NodeID]bool),
		others:   make(map[topo.NodeID]map[topo.NodeID]bool),
		from:     make(map[topo.NodeID]bool),
	}
	n.rng = xrand.Wrap(&n.pcg)
	n.helloFn = n.sendHello
	n.prc = net.engine.NewProcess(id)
	n.install()
	// Radio → GCN delivery is wiring, not run state: register once.
	net.medium.SetReceiver(id, func(frame uint64, from topo.NodeID, payload []byte) {
		if frame != net.decFrame {
			// The frame's first receiver decodes it for all of them.
			net.decFrame = frame
			net.decMsg, _ = net.dec.Unmarshal(payload)
		}
		if net.decMsg == nil {
			net.decodeErrors++
			return
		}
		net.engine.Deliver(n.prc, from, net.decMsg)
	})
	n.reset(net.seed)
	return n
}

// reset rewinds all per-run protocol state and reseeds the node's random
// stream for the given run seed, leaving the wiring (process, actions,
// receiver, timers) in place. A reset node is indistinguishable from a
// freshly constructed one.
func (n *node) reset(seed uint64) {
	n.pcg.Seed(xrand.Seeds(seed, uint64(n.id), 0x6f64656e)) // per-node stream
	n.myN = n.myN[:0]
	clear(n.npar)
	clear(n.children)
	clear(n.others)
	n.ninfo.reset()
	n.hop = noValue
	n.par = topo.None
	n.slot = noValue
	n.normal = true
	n.version = 0
	n.dissemBudget = 0
	clear(n.from)
	n.startNode = false
	n.pr = 0
	n.changed = false
	n.pendingOrigin = n.id
	n.pendingSeq = 0
	n.pendingCount = 0
	n.dataPeriod = 0
	n.dead = false
	n.energyUsed = 0
	n.energyDead = false
}

func (n *node) isSink() bool { return n.id == n.net.sink }

// install registers the GCN actions in priority order.
func (n *node) install() {
	p := n.prc

	// rcv⟨HELLO⟩: neighbour discovery.
	p.AddReceive("rcvHello", matchType(wire.TypeHello), func(sender topo.NodeID, _ gcn.Message) {
		n.addNeighbour(sender)
		// A HELLO during the data phase is a recovered node re-running
		// discovery (fault injection): neighbours holding schedule state
		// answer with a relay budget so the rejoiner re-learns hop/slot
		// structure and can re-acquire a slot. Gated on the fault plan so
		// fault-free runs replay the pre-fault event order exactly.
		if n.net.faultPlan != nil && n.net.sim.Now() >= n.net.dataStart && (n.isSink() || n.slot != noValue) {
			n.grantRelayBudget()
		}
	})

	// receiveN :: rcv⟨DISSEM, 1, j, N, p⟩ (Figure 2).
	p.AddReceive("receiveN", matchDissem(true), func(sender topo.NodeID, m gcn.Message) {
		n.onDissem(sender, m.(*wire.Dissem))
	})

	// receiveU :: rcv⟨DISSEM, 0, j, N, p⟩ (Figure 2): update from parent.
	p.AddReceive("receiveU", matchDissem(false), func(sender topo.NodeID, m gcn.Message) {
		n.onDissem(sender, m.(*wire.Dissem))
	})

	// receiveS :: rcv⟨SEARCH, k, j, d⟩ (Figure 3).
	p.AddReceive("receiveS", matchType(wire.TypeSearch), func(sender topo.NodeID, m gcn.Message) {
		n.onSearch(sender, m.(*wire.Search))
	})

	// receiveC :: rcv⟨CHANGE, p, j, s, d⟩ (Figure 4).
	p.AddReceive("receiveC", matchType(wire.TypeChange), func(sender topo.NodeID, m gcn.Message) {
		n.onChange(sender, m.(*wire.Change))
	})

	// rcv⟨DATA⟩: data-phase aggregation bookkeeping.
	p.AddReceive("rcvData", matchType(wire.TypeData), func(sender topo.NodeID, m gcn.Message) {
		n.onData(sender, m.(*wire.Data))
	})

	// process :: rcv⟨⟩ (Figure 2): choose parent and slot. TinyOS fires
	// this after "receiving all messages"; we model that by deferring the
	// decision one dissemination round after the first potential parent is
	// heard, so Npar collects every assigned neighbour of the round (this
	// is also what gives nodes the alternative parents Phase 2 needs).
	n.decide = p.NewTimer("process", n.chooseSlot)

	// Detection of slot collision then resolve (Figure 2, final lines).
	// The slot > 0 condition lives in the guard, not the body: a node
	// pinned at slot 0 that still collides must quiesce (the schedule
	// stays invalid and is reported as such), not spin firing a no-op
	// action until the step budget kills the process. Grids deep enough
	// to exhaust the slot space hit this; Table I's never do.
	p.AddGuard("resolve", func() bool { return n.slot > 0 && n.collisionLoser() != topo.None }, func() {
		n.setSlot(n.resolveTarget())
	})

	// startR (Figure 4): begin the change process once selected.
	p.AddGuard("startR", func() bool { return n.startNode }, n.startRefinement)

	// dissem :: timeout(dissem) (Figure 2): periodic state broadcast.
	n.dissem = p.NewTimer("dissem", n.onDissemTimer)
}

func matchType(t wire.Type) func(gcn.Message) bool {
	return func(m gcn.Message) bool {
		msg, ok := m.(wire.Message)
		return ok && msg.Kind() == t
	}
}

func matchDissem(normal bool) func(gcn.Message) bool {
	return func(m gcn.Message) bool {
		d, ok := m.(*wire.Dissem)
		return ok && d.Normal == normal
	}
}

// --- neighbour discovery ---

func (n *node) addNeighbour(m topo.NodeID) {
	if m == n.id {
		return
	}
	i := sort.Search(len(n.myN), func(i int) bool { return n.myN[i] >= m })
	if i < len(n.myN) && n.myN[i] == m {
		return
	}
	n.myN = append(n.myN, 0)
	copy(n.myN[i+1:], n.myN[i:])
	n.myN[i] = m
}

// knowsNeighbour reports m ∈ myN.
func (n *node) knowsNeighbour(m topo.NodeID) bool {
	i := sort.Search(len(n.myN), func(i int) bool { return n.myN[i] >= m })
	return i < len(n.myN) && n.myN[i] == m
}

func (n *node) sendHello() {
	h := &n.net.outHello
	h.From = n.id
	n.net.broadcast(n.id, h)
}

// --- Figure 2: DAS ---

// sinkInit is the init action: the sink seeds the schedule with slot Δ.
func (n *node) sinkInit() {
	n.hop = 0
	n.par = topo.None
	n.slot = int32(n.net.cfg.Slots) // Δ: never transmits
	n.version++
	n.ninfo.set(n.id, info{hop: 0, slot: n.slot, version: n.version})
	n.resetDissemination()
}

// onDissemTimer implements the dissem action: broadcast state, re-arm.
func (n *node) onDissemTimer() {
	if n.dissemBudget > 0 && (n.isSink() || n.slot != noValue) {
		n.dissemBudget--
		n.net.broadcast(n.id, n.buildDissem())
	}
	if n.dissemBudget > 0 {
		n.dissem.Set(xrand.JitterAround(n.rng, n.net.cfg.DisseminationPeriod, n.net.cfg.DisseminationPeriod/4))
	}
}

// resetDissemination grants a fresh DT send budget after a state change.
func (n *node) resetDissemination() {
	n.dissemBudget = n.net.cfg.DisseminationTimeout
	n.armDissem()
}

// grantRelayBudget allows a couple of extra sends to relay fresh
// neighbour state without re-flooding the full DT budget.
func (n *node) grantRelayBudget() {
	relay := 2
	if relay > n.net.cfg.DisseminationTimeout {
		relay = n.net.cfg.DisseminationTimeout
	}
	if n.dissemBudget < relay {
		n.dissemBudget = relay
	}
	n.armDissem()
}

func (n *node) armDissem() {
	if !n.dissem.Pending() {
		n.dissem.Set(xrand.JitterAround(n.rng, n.net.cfg.DisseminationPeriod/2, n.net.cfg.DisseminationPeriod/4))
	}
}

// buildDissem snapshots ⟨DISSEM, Normal, i, {Ninfo[j] | j ∈ myN}, par⟩
// into the network's outgoing scratch message (valid until the next
// broadcast, which is all a broadcast-and-forget sender needs).
func (n *node) buildDissem() *wire.Dissem {
	d := &n.net.outDissem
	d.From, d.Normal, d.Parent = n.id, n.normal, n.par
	d.Infos = d.Infos[:0]
	d.Infos = append(d.Infos, wire.NodeInfo{Node: n.id, Hop: n.hop, Slot: n.slot, Version: n.version})
	for _, m := range n.myN {
		in, known := n.ninfo.get(m)
		if !known {
			d.Infos = append(d.Infos, wire.NodeInfo{Node: m, Hop: noValue, Slot: noValue})
			continue
		}
		d.Infos = append(d.Infos, wire.NodeInfo{Node: m, Hop: in.hop, Slot: in.slot, Version: in.version})
	}
	return d
}

// onDissem handles both receiveN (Normal=1) and receiveU (Normal=0).
func (n *node) onDissem(sender topo.NodeID, d *wire.Dissem) {
	n.addNeighbour(sender)

	// Track children: a node whose dissem names us as parent is a child.
	if d.Parent == n.id {
		n.children[sender] = true
	} else {
		delete(n.children, sender)
	}

	// Merge Ninfo entries by freshness version. Fresh state about a
	// *direct neighbour* is worth relaying: 2-hop collision detection
	// only works if the middle node re-disseminates what it heard (the
	// Trickle-style reading of the DT send budget). Entries about more
	// distant nodes are merged but not relayed — they can never matter to
	// anyone within our radio range.
	senderSlot := noValue
	learnedNeighbour := false
	for _, in := range d.Infos {
		if in.Node == n.id {
			continue // never overwrite own state from the outside
		}
		cur, known := n.ninfo.get(in.Node)
		if !known || in.Version > cur.version {
			n.ninfo.set(in.Node, info{hop: in.Hop, slot: in.Slot, version: in.Version})
			if in.Node == sender || n.knowsNeighbour(in.Node) {
				learnedNeighbour = true
			}
		}
		if in.Node == sender {
			senderSlot = in.Slot
		}
	}
	if learnedNeighbour && (n.isSink() || n.slot != noValue) {
		n.grantRelayBudget()
	}

	if !n.isSink() && n.slot == noValue && senderSlot != noValue {
		// receiveN body: the sender is a potential parent; its slotless
		// neighbours are our slot competitors under that parent.
		n.npar[sender] = true
		comp := n.others[sender]
		if comp == nil {
			comp = make(map[topo.NodeID]bool)
			n.others[sender] = comp
		}
		for _, in := range d.Infos {
			if in.Slot == noValue && in.Node != sender {
				comp[in.Node] = true
			}
		}
		comp[n.id] = true
		// Arm the deferred process action (see install).
		if !n.decide.Pending() {
			n.decide.Set(xrand.JitterAround(n.rng, n.net.cfg.DisseminationPeriod, n.net.cfg.DisseminationPeriod/2))
		}
	}

	// receiveU body: a dissemination from our parent showing our slot no
	// longer strictly below it forces a slot drop and propagates the
	// update phase to our own children. The paper applies this only to
	// Normal=0 messages; we apply it to every parent dissemination because
	// a parent that decrements several times in quick succession can leap
	// past a child's slot without the two ever being equal, leaving a DAS
	// violation the collision rule cannot see.
	if sender == n.par && n.slot != noValue && senderSlot != noValue && n.slot >= senderSlot {
		n.normal = false
		ns := senderSlot - 1
		if ns < 0 {
			ns = 0
		}
		n.setSlot(ns)
	}
}

// chooseSlot is the process action of Figure 2: pick the parent on a
// shortest path and a slot below it by sibling rank.
func (n *node) chooseSlot() {
	if n.isSink() || n.slot != noValue || len(n.npar) == 0 {
		return
	}
	// hop := min{h | (h, s) ∈ Ninfo[k], k ∈ Npar} + 1
	minHop := int32(-1)
	for _, k := range sortedIDs(n.npar) {
		in, ok := n.ninfo.get(k)
		if !ok || in.hop == noValue || in.slot == noValue {
			continue
		}
		if minHop < 0 || in.hop < minHop {
			minHop = in.hop
		}
	}
	if minHop < 0 {
		// Stale potential parents (e.g. their info got overwritten by ⊥
		// relays before versioning caught up); wait for fresher dissem.
		n.npar = make(map[topo.NodeID]bool)
		return
	}
	n.hop = minHop + 1
	// par := min{k ∈ Npar : Ninfo[k].hop = hop−1}. "min" over raw IDs
	// makes every node in a grid quadrant chain its parents in the same
	// compass direction, which skews where slot gradients drain; as with
	// rank, we take the minimum under a per-run seeded order (the paper's
	// choice of order is arbitrary, its capture symmetry is not).
	n.par = topo.None
	var bestKey uint64
	for _, k := range sortedIDs(n.npar) {
		if in, ok := n.ninfo.get(k); ok && in.hop == minHop {
			key := n.net.parentKey(n.id, k)
			if n.par == topo.None || key < bestKey {
				n.par, bestKey = k, key
			}
		}
	}
	// slot := Ninfo[par].slot − rank(i, Others[par]) − 1. The paper leaves
	// the rank order unspecified; the TinyOS implementation effectively
	// ranks by (random) message arrival order. We reproduce that
	// nondeterminism deterministically: competitors are ranked by a
	// seeded hash, so every run explores a different sibling ordering
	// while all nodes within one run agree on it.
	rank := int32(0)
	myKey := n.net.rankKey(n.par, n.id)
	//lint:ignore mapiter counting key-hash comparisons commutes over any order
	for c := range n.others[n.par] {
		if c != n.id && n.net.rankKey(n.par, c) < myKey {
			rank++
		}
	}
	parInfo, _ := n.ninfo.get(n.par)
	n.setSlot(parInfo.slot - rank - 1)
	// children := slotless neighbours (optimistic, refined by dissems).
	for _, m := range n.myN {
		if in, ok := n.ninfo.get(m); !ok || in.slot == noValue {
			n.children[m] = true
		}
	}
}

// setSlot updates the slot, version, own Ninfo entry and dissemination.
func (n *node) setSlot(s int32) {
	n.slot = s
	n.version++
	n.ninfo.set(n.id, info{hop: n.hop, slot: n.slot, version: n.version})
	// Schedule-repair clock (fault injection): any slot change after the
	// first fault is self-healing activity. A plain field write — no event
	// or random draw — so fault-free runs are unaffected.
	if n.net.faultPlan != nil && n.net.firstFaultAt > 0 && n.net.sim.Now() >= n.net.firstFaultAt {
		n.net.lastRepairAt = n.net.sim.Now()
	}
	n.resetDissemination()
}

// collisionLoser returns a 2-hop neighbour we collide with and must yield
// to (Figure 2: the node with the greater hop decrements; ties broken by
// an arbitrary total order), or topo.None. The paper breaks ties by node
// ID; any consistent order works, and a fixed ID order imprints a spatial
// slot bias towards high-ID grid regions that the paper's quadrant-
// symmetric capture ratios do not exhibit — so we use a per-run seeded
// order instead (see DESIGN.md, faithfulness notes). This guard is
// re-evaluated after every executed action, so it scans the already-sorted
// info table rather than sorting map keys per call.
func (n *node) collisionLoser() topo.NodeID {
	if n.slot == noValue || n.isSink() {
		return topo.None
	}
	for k, j := range n.ninfo.ids {
		if j == n.id {
			continue
		}
		in := n.ninfo.infos[k]
		if in.slot != n.slot || in.slot == noValue {
			continue
		}
		if n.hop > in.hop || (n.hop == in.hop && n.net.orderKey(n.id) > n.net.orderKey(j)) {
			return j
		}
	}
	return topo.None
}

// resolveTarget is the slot a collision loser descends to. Figure 2
// decrements by one; with FastCollisionResolve the loser jumps straight
// to the nearest slot below its own that no known 2-hop neighbour holds,
// reaching the same collision-free fixed point without broadcasting one
// dissemination wave per slot of descent. Falls back to the unit
// decrement when every slot down to 0 is occupied, so progress (and the
// guard's slot > 0 termination) is identical in the worst case.
func (n *node) resolveTarget() int32 {
	if !n.net.cfg.FastCollisionResolve {
		return n.slot - 1
	}
	for s := n.slot - 1; s > 0; s-- {
		taken := false
		for k, j := range n.ninfo.ids {
			if j != n.id && n.ninfo.infos[k].slot == s {
				taken = true
				break
			}
		}
		if !taken {
			return s
		}
	}
	return n.slot - 1
}

// --- Figure 3: NSearch ---

// startSearch is the sink's startS action: send SEARCH towards the child
// with the minimum slot (the attacker's natural first direction — every
// sink neighbour is a child of the sink).
func (n *node) startSearch() {
	c := n.lureTarget()
	if c == topo.None {
		c = n.minSlotChild()
	}
	if c == topo.None {
		return
	}
	ttl := n.net.cfg.SearchTTLBudget
	if ttl <= 0 {
		ttl = 4*n.net.cfg.SearchDistance + 8
	}
	n.broadcastSearch(c, int32(n.net.cfg.SearchDistance), int32(ttl))
}

func (n *node) broadcastSearch(aNode topo.NodeID, dist, ttl int32) {
	s := &n.net.outSearch
	s.From, s.ANode, s.Dist, s.TTL = n.id, aNode, dist, ttl
	n.net.broadcast(n.id, s)
}

func (n *node) broadcastChange(aNode topo.NodeID, nSlot, dist int32) {
	c := &n.net.outChange
	c.From, c.ANode, c.NSlot, c.Dist = n.id, aNode, nSlot, dist
	n.net.broadcast(n.id, c)
}

func (n *node) minSlotChild() topo.NodeID {
	best := topo.None
	bestSlot := int32(0)
	for _, c := range sortedIDs(n.children) {
		in, ok := n.ninfo.get(c)
		if !ok || in.slot == noValue {
			continue
		}
		if best == topo.None || in.slot < bestSlot {
			best, bestSlot = c, in.slot
		}
	}
	return best
}

// lureTarget predicts the attacker's next hop from this node: the
// minimum-slot neighbour (the origin of the first message a co-located
// eavesdropper hears). Figure 3 follows minimum-slot children, which
// coincides with this at the sink but diverges deeper in the network
// where the attacker is not constrained to tree edges; aiming the search
// at the true gradient is what "a suitable location ... where the
// attacker can be tricked" requires.
func (n *node) lureTarget() topo.NodeID {
	best := topo.None
	bestSlot := int32(0)
	for _, m := range n.myN {
		in, ok := n.ninfo.get(m)
		if !ok || in.slot == noValue || int(in.slot) >= n.net.cfg.Slots {
			continue
		}
		if best == topo.None || in.slot < bestSlot {
			best, bestSlot = m, in.slot
		}
	}
	return best
}

func (n *node) onSearch(sender topo.NodeID, s *wire.Search) {
	n.from[sender] = true
	if s.ANode != n.id || n.isSink() {
		return
	}
	if s.TTL <= 0 {
		return
	}
	switch {
	case s.Dist == 0 && n.hasAltParent(sender):
		// Suitable redirection point found.
		n.startNode = true
		n.pr = n.changeLength()
	case s.Dist == 0:
		// Keep wandering for a node with an alternative parent.
		target := n.chooseFrom(sortedIDs(n.children))
		if target == topo.None {
			target = n.chooseFrom(n.eligibleNeighbours(sender))
		}
		if target != topo.None {
			n.broadcastSearch(target, 0, s.TTL-1)
		}
	default:
		// d > 0: follow the attacker's predicted gradient outwards.
		target := n.lureTarget()
		if target == sender || target == topo.None {
			target = n.minSlotChild()
		}
		if target == topo.None {
			target = n.chooseFrom(n.eligibleNeighbours(sender))
		}
		if target != topo.None {
			n.broadcastSearch(target, s.Dist-1, s.TTL-1)
		}
	}
}

// hasAltParent reports Npar \ {par, k} ≠ ∅.
func (n *node) hasAltParent(k topo.NodeID) bool {
	//lint:ignore mapiter existence scan, order-independent
	for p := range n.npar {
		if p != n.par && p != k {
			return true
		}
	}
	return false
}

// changeLength resolves CL: explicit config or Table I's Δss − SD.
func (n *node) changeLength() int32 {
	if n.net.cfg.ChangeLength > 0 {
		return int32(n.net.cfg.ChangeLength)
	}
	cl := n.net.deltaSS - n.net.cfg.SearchDistance
	if cl < 1 {
		cl = 1
	}
	return int32(cl)
}

// eligibleNeighbours returns myN \ {par} \ from \ {sender}, sorted.
func (n *node) eligibleNeighbours(sender topo.NodeID) []topo.NodeID {
	var out []topo.NodeID
	for _, m := range n.myN {
		if m == n.par || m == sender || n.from[m] {
			continue
		}
		out = append(out, m)
	}
	return out
}

// chooseFrom implements choose(): a uniformly random pick.
func (n *node) chooseFrom(set []topo.NodeID) topo.NodeID {
	if len(set) == 0 {
		return topo.None
	}
	return set[n.rng.IntN(len(set))]
}

// --- Figure 4: SRefine ---

// startRefinement is the startR action: pick an alternative potential
// parent and launch the CHANGE walk with the neighbourhood slot minimum.
func (n *node) startRefinement() {
	n.startNode = false
	var cands []topo.NodeID
	for _, p := range sortedIDs(n.npar) {
		if p != n.par && !n.from[p] {
			cands = append(cands, p)
		}
	}
	aNode := n.chooseFrom(cands)
	if aNode == topo.None {
		return
	}
	n.broadcastChange(aNode, n.minKnownSlot(), n.pr-1)
}

// minKnownSlot returns min over every known slot including our own — the
// value the next decoy node must undercut. Using the full 2-hop view
// (rather than Figure 4's 1-hop myN) additionally avoids re-introducing
// 2-hop collisions.
func (n *node) minKnownSlot() int32 {
	min := n.slot
	for k := range n.ninfo.ids {
		in := n.ninfo.infos[k]
		if in.slot == noValue || int(in.slot) >= n.net.cfg.Slots {
			continue // sink's Δ and unknowns do not count
		}
		if min == noValue || in.slot < min {
			min = in.slot
		}
	}
	return min
}

func (n *node) onChange(sender topo.NodeID, c *wire.Change) {
	n.from[sender] = true
	if c.ANode != n.id || n.isSink() || n.slot == noValue {
		return
	}
	// Adopt the decoy slot: strictly below everything the previous node
	// could hear. Guard against the slot space floor.
	newSlot := c.NSlot - 1
	if newSlot < 0 {
		newSlot = 0
	}
	// §V prose: "When n changes its slot, it has to inform its children to
	// update their slots. This is achieved by setting Normal to 0."
	n.normal = false
	n.changed = true
	n.setSlot(newSlot)
	n.net.changedNodes++

	if c.Dist > 0 {
		next := n.chooseFrom(n.eligibleNeighbours(sender))
		if next != topo.None {
			n.broadcastChange(next, n.minKnownSlot(), c.Dist-1)
		}
	}
}

// --- data phase ---

// fireDataSlot is the TDMA slot task callback: flood one DATA frame.
func (n *node) fireDataSlot(period int) {
	n.dataPeriod = period
	d := &n.net.outData
	d.From = n.id
	if n.id == n.net.source {
		d.Origin = n.id
		d.Seq = uint32(period)
		d.Count = n.pendingCount + 1
	} else {
		d.Origin = n.pendingOrigin
		d.Seq = n.pendingSeq
		d.Count = n.pendingCount + 1
	}
	n.net.broadcast(n.id, d)
	n.pendingOrigin = n.id
	n.pendingSeq = 0
	n.pendingCount = 0
}

func (n *node) onData(_ topo.NodeID, d *wire.Data) {
	n.pendingCount += d.Count
	if d.Origin == n.net.source && n.id != n.net.source {
		if n.pendingOrigin != n.net.source || d.Seq > n.pendingSeq {
			n.pendingOrigin = n.net.source
			n.pendingSeq = d.Seq
		}
		if n.isSink() {
			n.net.recordSourceDelivery(d.Seq)
		}
	}
}

// --- helpers ---

func sortedIDs(set map[topo.NodeID]bool) []topo.NodeID {
	out := make([]topo.NodeID, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// jitterDelay spaces a node's boot.
func (n *node) jitterDelay(max time.Duration) time.Duration {
	return xrand.Jitter(n.rng, max)
}
