package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"slpdas/internal/gcn"
	"slpdas/internal/topo"
	"slpdas/internal/wire"
	"slpdas/internal/xrand"
)

// info is one Ninfo entry: a (hop, slot) pair and its freshness. seen is
// the wire version plus one, so seen 0 marks a node nothing has been
// heard about, told apart from a known entry at wire version 0. An
// unknown entry holds ⊥ hop and slot, which every scan over the table
// skips.
type info struct {
	hop  int32
	slot int32
	seen uint32
}

const noValue int32 = wire.NoSlot // ⊥

// unknown is the entry of a node nothing has been heard about.
var unknown = info{hop: noValue, slot: noValue}

// pairKey packs (potential parent, competitor) into one Others key: once
// sorted, all of one parent's competitors are a contiguous run.
func pairKey(parent, competitor topo.NodeID) uint64 {
	return uint64(uint32(parent))<<32 | uint64(uint32(competitor))
}

// rel holds a node's relations to one peer of its two-hop set: the sets
// myN, Npar, children and from of Figures 2–3, one bit each. Every peer a
// node relates to has sent it a frame, so it is a graph neighbour and has
// an entry in the node's table.
type rel uint8

const (
	relNeighbour rel = 1 << iota // myN: a discovered neighbour
	relParent                    // Npar: a potential parent
	relChild                     // children: a node that chose us as parent
	relFrom                      // from: a sender of SEARCH or CHANGE seen
)

// infoTable is a node's Ninfo, one entry per member of its two-hop set:
// infos[i] is ids[i]'s entry and rels[i] the node's relations to it, and
// ids is the graph's TwoHop of the node, shared, never copied. Every Ninfo
// entry a DISSEM can carry is about the sender or one of the sender's
// neighbours, so the table never needs another key, and a DISSEM merge
// addresses entries by rank (see topo.RankRows). Every loop over one of
// the node's sets is an ascending scan of rels. The node's own state stays
// in its own fields.
type infoTable struct {
	ids   []topo.NodeID // lint:immutable: the graph's TwoHop of the node, bound by Network.buildInfoTables
	infos []info        // a slice of Network.infoArena; reset rewinds the entries
	rels  []rel         // a slice of Network.relArena; reset clears the bits
}

func (t *infoTable) reset() {
	for i := range t.infos {
		t.infos[i] = unknown
	}
	clear(t.rels)
}

// senderRel returns the node's relation bits to the sender of the frame
// being delivered, placed by the edge's rank row (see Network.receive).
func (n *node) senderRel() *rel {
	return &n.ninfo.rels[n.net.decRow[0]]
}

// node is the context the combined DAS / NSearch / SRefine program of
// Figures 2–4 (nodeProgram) runs on for one WSN process. Construction
// wires the immutable parts (GCN process, timers); everything else is
// per-run state rewound by reset, so one node serves every run of an arena
// network.
//
// The layout serves the data phase, where most receptions land on nodes
// far out of cache: what a DATA delivery reads (the receive action, then
// every guard of the action loop) comes first, the process's own delivery
// fields included, and the node is padded to a whole number of cache
// lines. A network allocates its nodes in one line-aligned slab
// (nodeSlab), so a DATA delivery touches its receiver's first two lines
// only, and reaches the node with no pointer load.
// TestNodeLayoutKeepsDeliveryFieldsTogether pins all of this.
type node struct {
	// --- read by every DATA delivery ---
	id            topo.NodeID // lint:immutable: identity, fixed at construction
	slot          int32       // ⊥ = noValue
	net           *Network    // lint:immutable: back-pointer wiring, fixed at construction
	pendingOrigin topo.NodeID
	pendingSeq    uint32
	pendingCount  uint16
	startNode     bool // Figure 3: selected as the change-path start
	// The resolve guard runs after every action a node executes and its
	// collisionLoser scan covers the whole Ninfo table, so the node caches
	// that answer: loser is valid while dirty is false. Every write of an
	// entry, of the node's own slot (setSlot, sinkInit) and reset mark it
	// stale.
	dirty bool
	loser topo.NodeID
	prc   gcn.Process[*node] // lint:immutable: wired once; the engine resets it

	pcg     rand.PCG   // owned so reset can reseed in place
	rng     *rand.Rand // lint:immutable: wraps &pcg; reset reseeds the pcg in place
	helloFn func()     // lint:immutable: cached method value; scheduled once per NDP round

	// --- Figure 2 (DAS) state ---
	ninfo   infoTable   // 1- and 2-hop neighbourhood info, and myN, Npar, children and from
	others  []uint64    // slot competitors per potential parent, as pairKeys, unsorted, with repeats
	hop     int32       // ⊥ = noValue
	par     topo.NodeID // ⊥ = topo.None
	version uint32      // own state freshness
	normal  bool        // false during the update phase

	dissem       *gcn.Timer[*node] // lint:immutable: pointer fixed; timer disarmed by the engine reset
	decide       *gcn.Timer[*node] // lint:immutable: pointer fixed; defers the process action one dissem round
	dissemBudget int

	// --- Figures 3–4 (NSearch, SRefine) and the data phase ---
	dataPeriod int
	pr         int32 // change-path length when selected
	changed    bool  // slot altered by Phase 3

	// Energy accounting (Config.Energy runs only; both stay zero
	// otherwise). energyUsed is the cumulative spend in mJ; energyDead
	// latches battery depletion — unlike a churn crash it is permanent,
	// recovery cannot resurrect a flat battery.
	energyDead bool
	energyUsed float64

	_ [nodePad]byte // rounds the node up to whole cache lines
}

// nodePad rounds a node up to 320 bytes, five cache lines.
const nodePad = 8

// newNode wires n, an entry of net's node slab, as node id.
func newNode(n *node, id topo.NodeID, net *Network) {
	*n = node{id: id, net: net}
	n.rng = xrand.Wrap(&n.pcg)
	n.helloFn = n.sendHello
	net.engine.Host(&n.prc, id, n)
	n.decide, n.dissem = n.prc.Timer(decideTimer), n.prc.Timer(dissemTimer)
	n.reset(net.seed)
}

// reset rewinds all per-run protocol state and reseeds the node's random
// stream for the given run seed, leaving the wiring (process, actions,
// timers) in place. A reset node is indistinguishable from a freshly
// constructed one.
func (n *node) reset(seed uint64) {
	n.pcg.Seed(xrand.Seeds(seed, uint64(n.id), 0x6f64656e)) // per-node stream
	n.others = n.others[:0]
	n.ninfo.reset()
	n.loser = topo.None
	n.dirty = true
	n.hop = noValue
	n.par = topo.None
	n.slot = noValue
	n.normal = true
	n.version = 0
	n.dissemBudget = 0
	n.startNode = false
	n.pr = 0
	n.changed = false
	n.pendingOrigin = n.id
	n.pendingSeq = 0
	n.pendingCount = 0
	n.dataPeriod = 0
	n.energyUsed = 0
	n.energyDead = false
}

func (n *node) isSink() bool { return n.id == n.net.sink }

// Receive-action keys: a message's wire.Type, except that a DISSEM with
// Normal = 0 (receiveU) has a key of its own.
const keyDissemUpdate = int(wire.TypeData) + 1

// receiveKey is the node program's receive-action key of m. The receive
// path classifies each frame once, beside its decode, for all its
// receivers.
//
//slp:hotpath
func receiveKey(m wire.Message) int {
	if d, ok := m.(*wire.Dissem); ok && !d.Normal {
		return keyDissemUpdate
	}
	return int(m.Kind())
}

// nodeProgram is the combined program of Figures 2–4, compiled once and
// shared by every node of every network. Timeout and guarded actions are
// in priority order.
var nodeProgram, decideTimer, dissemTimer = compileNodeProgram()

func compileNodeProgram() (g *gcn.Program[*node], decide, dissem gcn.TimerID) {
	g = gcn.NewProgram[*node]()
	// rcv⟨HELLO⟩: neighbour discovery.
	g.Receive(int(wire.TypeHello), "rcvHello", (*node).onHello)
	// receiveN :: rcv⟨DISSEM, 1, j, N, p⟩ (Figure 2).
	g.Receive(int(wire.TypeDissem), "receiveN", (*node).onDissem)
	// receiveU :: rcv⟨DISSEM, 0, j, N, p⟩ (Figure 2): update from parent.
	g.Receive(keyDissemUpdate, "receiveU", (*node).onDissem)
	// receiveS :: rcv⟨SEARCH, k, j, d⟩ (Figure 3).
	g.Receive(int(wire.TypeSearch), "receiveS", (*node).onSearch)
	// receiveC :: rcv⟨CHANGE, p, j, s, d⟩ (Figure 4).
	g.Receive(int(wire.TypeChange), "receiveC", (*node).onChange)
	// rcv⟨DATA⟩: data-phase aggregation bookkeeping.
	g.Receive(int(wire.TypeData), "rcvData", (*node).onData)

	// process :: rcv⟨⟩ (Figure 2): choose parent and slot. TinyOS fires
	// this after "receiving all messages"; we model that by deferring the
	// decision one dissemination round after the first potential parent is
	// heard, so Npar collects every assigned neighbour of the round (this
	// is also what gives nodes the alternative parents Phase 2 needs).
	decide = g.Timeout("process", (*node).chooseSlot)
	// Detection of slot collision then resolve (Figure 2, final lines).
	g.Guard("resolve", (*node).colliding, (*node).resolve)
	// startR (Figure 4): begin the change process once selected.
	g.Guard("startR", func(n *node) bool { return n.startNode }, (*node).startRefinement)
	// dissem :: timeout(dissem) (Figure 2): periodic state broadcast.
	dissem = g.Timeout("dissem", (*node).onDissemTimer)
	return g, decide, dissem
}

// --- neighbour discovery ---

// onHello is rcv⟨HELLO⟩.
func (n *node) onHello(_ topo.NodeID, _ gcn.Message) {
	*n.senderRel() |= relNeighbour
	// A HELLO during the data phase is a recovered node re-running
	// discovery (fault injection): neighbours holding schedule state
	// answer with a relay budget so the rejoiner re-learns hop/slot
	// structure and can re-acquire a slot. Gated on the fault plan so
	// fault-free runs replay the pre-fault event order exactly.
	if n.net.faultPlan != nil && n.net.sim.Now() >= n.net.dataStart && (n.isSink() || n.slot != noValue) {
		n.grantRelayBudget()
	}
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
	n.dirty = true
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
	t := &n.ninfo
	for k, r := range t.rels {
		if r&relNeighbour == 0 {
			continue
		}
		in := t.infos[k]
		if in.seen > 0 { // an unknown entry goes out as ⊥ at version 0
			in.seen--
		}
		d.Infos = append(d.Infos, wire.NodeInfo{Node: t.ids[k], Hop: in.hop, Slot: in.slot, Version: in.seen})
	}
	return d
}

// onDissem handles both receiveN (Normal=1) and receiveU (Normal=0).
func (n *node) onDissem(sender topo.NodeID, m gcn.Message) {
	d := m.(*wire.Dissem)
	r := n.senderRel()
	*r |= relNeighbour

	// Track children: a node whose dissem names us as parent is a child.
	if d.Parent == n.id {
		*r |= relChild
	} else {
		*r &^= relChild
	}

	senderSlot, learnedNeighbour := n.mergeInfos(d.Infos, n.net.decPos, n.net.decRow)
	if learnedNeighbour && (n.isSink() || n.slot != noValue) {
		n.grantRelayBudget()
	}

	if !n.isSink() && n.slot == noValue && senderSlot != noValue {
		// receiveN body: the sender is a potential parent; its slotless
		// neighbours are our slot competitors under that parent.
		*r |= relParent
		for _, in := range d.Infos {
			if in.Slot == noValue && in.Node != sender {
				n.others = append(n.others, pairKey(sender, in.Node))
			}
		}
		n.others = append(n.others, pairKey(sender, n.id))
		// Arm the deferred process action (see compileNodeProgram).
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

// mergeInfos merges a DISSEM's Ninfo entries by freshness version and
// returns the sender's slot (⊥ if absent) and whether fresh state about a
// direct neighbour arrived. Such state is worth relaying: 2-hop collision
// detection only works if the middle node re-disseminates what it heard
// (the Trickle-style reading of the DT send budget). Entries about more
// distant nodes are merged but not relayed — they can never matter to
// anyone within our radio range.
//
// pos[k] is infos[k]'s place in the sender's closed neighbourhood, 0 for
// the sender itself, and row maps those places to ranks in our table
// (Network.receive computes both), so each entry costs one table read.
// Our own place maps to topo.NoRank: own state is never overwritten from
// the outside.
//
//slp:hotpath
func (n *node) mergeInfos(infos []wire.NodeInfo, pos []int32, row []uint16) (senderSlot int32, learned bool) {
	senderSlot = noValue
	t := &n.ninfo
	for k := range infos {
		in := &infos[k]
		if pos[k] == 0 {
			senderSlot = in.Slot
		}
		r := row[pos[k]]
		if r == topo.NoRank {
			continue
		}
		if e := &t.infos[r]; in.Version >= e.seen {
			*e = info{hop: in.Hop, slot: in.Slot, seen: in.Version + 1}
			n.dirty = true
			if !learned && (pos[k] == 0 || t.rels[r]&relNeighbour != 0) {
				learned = true
			}
		}
	}
	return senderSlot, learned
}

// chooseSlot is the process action of Figure 2: pick the parent on a
// shortest path and a slot below it by sibling rank.
func (n *node) chooseSlot() {
	if n.isSink() || n.slot != noValue {
		return
	}
	t := &n.ninfo
	// hop := min{h | (h, s) ∈ Ninfo[k], k ∈ Npar} + 1
	minHop := int32(-1)
	for k, r := range t.rels {
		in := t.infos[k]
		if r&relParent == 0 || in.hop == noValue || in.slot == noValue {
			continue
		}
		if minHop < 0 || in.hop < minHop {
			minHop = in.hop
		}
	}
	if minHop < 0 {
		// No potential parent, or only stale ones (e.g. their info got
		// overwritten by ⊥ relays before versioning caught up); wait for
		// fresher dissem.
		for k := range t.rels {
			t.rels[k] &^= relParent
		}
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
	parSlot := noValue
	for k, r := range t.rels {
		if r&relParent == 0 || t.infos[k].hop != minHop {
			continue
		}
		if key := n.net.parentKey(n.id, t.ids[k]); n.par == topo.None || key < bestKey {
			n.par, bestKey, parSlot = t.ids[k], key, t.infos[k].slot
		}
	}
	// slot := Ninfo[par].slot − rank(i, Others[par]) − 1. The paper leaves
	// the rank order unspecified; the TinyOS implementation effectively
	// ranks by (random) message arrival order. We reproduce that
	// nondeterminism deterministically: competitors are ranked by a
	// seeded hash, so every run explores a different sibling ordering
	// while all nodes within one run agree on it.
	slices.Sort(n.others)
	n.others = slices.Compact(n.others)
	rank := int32(0)
	myKey := n.net.rankKey(n.par, n.id)
	first := pairKey(n.par, 0)
	from, _ := slices.BinarySearch(n.others, first)
	for _, pc := range n.others[from:] {
		if pc>>32 != first>>32 {
			break
		}
		if c := topo.NodeID(int32(uint32(pc))); c != n.id && n.net.rankKey(n.par, c) < myKey {
			rank++
		}
	}
	n.setSlot(parSlot - rank - 1)
	// children := slotless neighbours (optimistic, refined by dissems).
	for k, r := range t.rels {
		if r&relNeighbour != 0 && t.infos[k].slot == noValue {
			t.rels[k] |= relChild
		}
	}
}

// setSlot updates the slot, version, own Ninfo entry and dissemination.
func (n *node) setSlot(s int32) {
	n.slot = s
	n.version++
	n.dirty = true
	// Schedule-repair clock (fault injection): any slot change after the
	// first fault is self-healing activity. A plain field write — no event
	// or random draw — so fault-free runs are unaffected.
	if n.net.faultPlan != nil && n.net.firstFaultAt > 0 && n.net.sim.Now() >= n.net.firstFaultAt {
		n.net.lastRepairAt = n.net.sim.Now()
	}
	n.resetDissemination()
}

// colliding is the resolve action's guard. The slot > 0 condition lives
// here, not in the command: a node pinned at slot 0 that still collides
// must quiesce (the schedule stays invalid and is reported as such), not
// spin firing a no-op action until the step budget kills the process.
// Grids deep enough to exhaust the slot space hit this; Table I's never
// do. The collisionLoser answer is cached in the node (see node), so
// re-evaluating the guard after every action rescans the table only when
// it changed.
//
//slp:hotpath
func (n *node) colliding() bool {
	if n.slot <= 0 {
		return false
	}
	if n.dirty {
		n.loser, n.dirty = n.collisionLoser(), false
	}
	return n.loser != topo.None
}

// resolve is the resolve action's command.
func (n *node) resolve() { n.setSlot(n.resolveTarget()) }

// collisionLoser returns a 2-hop neighbour we collide with and must yield
// to (Figure 2: the node with the greater hop decrements; ties broken by
// an arbitrary total order), or topo.None. The paper breaks ties by node
// ID; any consistent order works, and a fixed ID order imprints a spatial
// slot bias towards high-ID grid regions that the paper's quadrant-
// symmetric capture ratios do not exhibit — so we use a per-run seeded
// order instead (see DESIGN.md, faithfulness notes).
func (n *node) collisionLoser() topo.NodeID {
	if n.slot == noValue || n.isSink() {
		return topo.None
	}
	for k, j := range n.ninfo.ids {
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
// without broadcasting one dissemination wave per slot of descent. It does
// not reach the same fixed point: its schedules differ from the unit
// decrement's and, on dense graphs where the slot space runs out, end
// with a collision at the clamped slot 0 more often (DESIGN.md, "Scale
// path", gives the measurement). Falls back to the unit decrement when
// every slot down to 0 is occupied, so progress (and the guard's slot > 0
// termination) is identical in the worst case.
func (n *node) resolveTarget() int32 {
	if !n.net.cfg.FastCollisionResolve {
		return n.slot - 1
	}
	for s := n.slot - 1; s > 0; s-- {
		taken := false
		for _, in := range n.ninfo.infos {
			if in.slot == s {
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
	// The TTL bounds total SEARCH forwards: the d=0 wander of Figure 3 can
	// otherwise circulate.
	ttl := 4*n.net.cfg.SearchDistance + 8
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

// minSlotChild is the child with the minimum slot.
func (n *node) minSlotChild() topo.NodeID { return n.minSlotPeer(relChild, math.MaxInt32) }

// lureTarget predicts the attacker's next hop from this node: the
// minimum-slot neighbour (the origin of the first message a co-located
// eavesdropper hears). Figure 3 follows minimum-slot children, which
// coincides with this at the sink but diverges deeper in the network
// where the attacker is not constrained to tree edges; aiming the search
// at the true gradient is what "a suitable location ... where the
// attacker can be tricked" requires. The sink's Δ does not count.
func (n *node) lureTarget() topo.NodeID {
	return n.minSlotPeer(relNeighbour, int32(n.net.cfg.Slots))
}

// minSlotPeer returns the peer with relation want whose known slot is the
// lowest below limit, the lowest ID among equals, or topo.None.
func (n *node) minSlotPeer(want rel, limit int32) topo.NodeID {
	t := &n.ninfo
	best := topo.None
	bestSlot := int32(0)
	for k, r := range t.rels {
		s := t.infos[k].slot
		if r&want == 0 || s == noValue || s >= limit {
			continue
		}
		if best == topo.None || s < bestSlot {
			best, bestSlot = t.ids[k], s
		}
	}
	return best
}

func (n *node) onSearch(sender topo.NodeID, m gcn.Message) {
	s := m.(*wire.Search)
	*n.senderRel() |= relFrom
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
		target := n.choose(relChild, 0, topo.None, topo.None)
		if target == topo.None {
			target = n.choose(relNeighbour, relFrom, n.par, sender)
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
			target = n.choose(relNeighbour, relFrom, n.par, sender)
		}
		if target != topo.None {
			n.broadcastSearch(target, s.Dist-1, s.TTL-1)
		}
	}
}

// hasAltParent reports Npar \ {par, k} ≠ ∅.
func (n *node) hasAltParent(k topo.NodeID) bool {
	t := &n.ninfo
	for i, r := range t.rels {
		if r&relParent != 0 && t.ids[i] != n.par && t.ids[i] != k {
			return true
		}
	}
	return false
}

// changeLength is Table I's CL = Δss − SD, at least 1.
func (n *node) changeLength() int32 {
	cl := n.net.deltaSS - n.net.cfg.SearchDistance
	if cl < 1 {
		cl = 1
	}
	return int32(cl)
}

// choose implements choose(): a uniformly random pick among the peers
// whose relations include want and exclude skip, other than a and b,
// drawn in ascending ID order; topo.None, without a draw, when there is
// none. choose(relNeighbour, relFrom, par, sender) picks from
// myN \ {par} \ from \ {sender}.
func (n *node) choose(want, skip rel, a, b topo.NodeID) topo.NodeID {
	t := &n.ninfo
	admitted := func(k int) bool {
		r := t.rels[k]
		return r&want != 0 && r&skip == 0 && t.ids[k] != a && t.ids[k] != b
	}
	count := 0
	for k := range t.rels {
		if admitted(k) {
			count++
		}
	}
	if count == 0 {
		return topo.None
	}
	pick := n.rng.IntN(count)
	for k := range t.rels {
		if admitted(k) {
			if pick == 0 {
				return t.ids[k]
			}
			pick--
		}
	}
	panic("core: choose lost an admitted peer")
}

// --- Figure 4: SRefine ---

// startRefinement is the startR action: pick an alternative potential
// parent and launch the CHANGE walk with the neighbourhood slot minimum.
func (n *node) startRefinement() {
	n.startNode = false
	aNode := n.choose(relParent, relFrom, n.par, topo.None)
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
	for _, in := range n.ninfo.infos {
		if in.slot == noValue || int(in.slot) >= n.net.cfg.Slots {
			continue // sink's Δ and unknowns do not count
		}
		if min == noValue || in.slot < min {
			min = in.slot
		}
	}
	return min
}

func (n *node) onChange(sender topo.NodeID, m gcn.Message) {
	c := m.(*wire.Change)
	*n.senderRel() |= relFrom
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
		next := n.choose(relNeighbour, relFrom, n.par, sender)
		if next != topo.None {
			n.broadcastChange(next, n.minKnownSlot(), c.Dist-1)
		}
	}
}

// --- data phase ---

// periodStart is a node's TDMA period boundary and slotFire its slot
// within the period: two des.Runners reached by converting the node's
// pointer, so the data phase schedules them with no allocation.
type (
	periodStart node
	slotFire    node
)

// Run charges the period's idle listening, schedules the node's slot and
// schedules the next boundary. A crashed node's periods pass in silence,
// but its boundaries keep coming, so after a recovery its slots, and the
// source's sequence numbers, stay aligned with the clock. The slot is
// re-read every period, so a late refinement takes effect at the next
// boundary, and a slot outside [0, Slots), the sink's Δ included, skips
// the period.
//
//slp:hotpath
func (p *periodStart) Run() {
	n := (*node)(p)
	net := n.net
	if !n.prc.Dead() {
		// Idle listening is charged once per TDMA data period the node is
		// up. Only TDMA families start periods, so event-driven data
		// phases accrue no idle spend (documented in internal/energy).
		if net.energyOn {
			net.charge(n.id, net.cfg.Energy.IdleCost)
		}
		// Re-check: the charge may have drained the battery, and a node
		// that died at the boundary has no slot this period.
		if !n.prc.Dead() && net.timing.ValidSlot(int(n.slot)) {
			net.sim.ScheduleRunnerAfter(time.Duration(n.slot)*net.timing.SlotDuration, (*slotFire)(n))
		}
	}
	net.sim.ScheduleRunnerAfter(net.timing.PeriodDuration(), p)
}

// Run floods the node's DATA frame unless it crashed since the boundary.
// Boundaries fall at dataStart + k·PeriodDuration and a slot's offset
// stays inside its period, so the clock gives the period index k.
//
//slp:hotpath
func (f *slotFire) Run() {
	n := (*node)(f)
	if !n.prc.Dead() {
		n.fireDataSlot(int((n.net.sim.Now() - n.net.dataStart) / n.net.timing.PeriodDuration()))
	}
}

// fireDataSlot floods one DATA frame in the node's slot of the period.
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

func (n *node) onData(_ topo.NodeID, m gcn.Message) {
	d := m.(*wire.Data)
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

// jitterDelay spaces a node's boot.
func (n *node) jitterDelay(max time.Duration) time.Duration {
	return xrand.Jitter(n.rng, max)
}
