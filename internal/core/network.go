package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"slpdas/internal/attacker"
	"slpdas/internal/des"
	"slpdas/internal/fault"
	"slpdas/internal/gcn"
	"slpdas/internal/protocol"
	"slpdas/internal/radio"
	"slpdas/internal/schedule"
	"slpdas/internal/topo"
	"slpdas/internal/wire"
	"slpdas/internal/xrand"
)

// MsgStats counts frames and bytes sent for one message type.
type MsgStats struct {
	Count uint64
	Bytes uint64
}

// msgStatsSlots sizes the per-type stats array: wire types are small dense
// constants, so accounting is an indexed add instead of a map lookup.
const msgStatsSlots = int(wire.TypeData) + 1

// Network assembles one simulated run: topology, radio, GCN engine, one
// protocol node per WSN node, and the attacker.
//
// Construction is split into one-time wiring and per-run state. NewNetwork
// wires the expensive immutable machinery — simulator, medium, engine,
// node processes running the shared GCN program, the radio receiver — and
// Reset rewinds everything mutable (clocks, pools, protocol state,
// counters, random streams) for a new (config, seed) without reallocating
// the wiring, so arena-style callers replay thousands of runs on one
// Network. The attackers are the exception: Reset builds each one anew
// with attacker.New, so each gets a fresh strategy instance. A fresh
// NewNetwork is itself implemented as wiring + Reset, so the two paths
// cannot drift apart.
type Network struct {
	cfg    Config
	g      *topo.Graph // lint:immutable: topology wiring, fixed at construction
	sink   topo.NodeID // lint:immutable: fixed by the topology
	source topo.NodeID // lint:immutable: fixed by the topology
	seed   uint64

	sim    *des.Simulator
	medium *radio.Medium
	engine *gcn.Engine[*node]
	nodes  []node // lint:immutable: one line-aligned slab (see nodeSlab); nodes reset individually
	atks   []*attacker.Attacker

	period    time.Duration // one TDMA period: cfg.Slots × cfg.SlotPeriod
	deltaSS   int           // lint:immutable: hop distance sink→source, fixed by the topology
	sinkEcc   int           // lint:immutable: max hop distance from the sink, fixed by the topology
	dataStart time.Duration
	deadline  time.Duration
	delta     float64 // safety period in TDMA periods

	// env is the world handed to the routing family's StartData
	// (cfg.Protocol), which builds its run state afresh from it.
	env protocol.Env // lint:immutable: topology wiring, fixed at construction

	// res is the run's Result as it is being written. Reset fills in the
	// run's fixed facts and sentinels, the run counts straight into it
	// (decode errors, changed nodes, deliveries and their latencies, fault
	// and energy events), and collect adds the end-of-run facts to a copy.
	// No counter it holds has a second copy on the Network.
	res      Result
	msgStats [msgStatsSlots]MsgStats

	// Energy accounting state (cfg.Energy configured only). energyOn is
	// latched at Reset and gates every charging branch so energy-off runs
	// replay the pre-energy event order exactly. lifetimeAt is the instant
	// the first depletion death partitioned source from sink — the
	// network-lifetime verdict; lifetimeEnded latches it.
	energyOn      bool
	firstDeathAt  time.Duration
	lifetimeAt    time.Duration
	lifetimeEnded bool

	// Fault-injection state. faultPlan is minted at Reset from cfg.Faults
	// on the dedicated "fault" stream, nil when the spec injects nothing;
	// non-nil, it gates every degradation-tracking branch so fault-free
	// runs replay the pre-fault event order exactly.
	faultPlan    *fault.Plan
	firstFaultAt time.Duration
	lastFaultAt  time.Duration
	lastRepairAt time.Duration
	// seqDelivered tracks which source sequence numbers (period indices)
	// reached the sink, for the before/during/after delivery ratios.
	seqDelivered []bool
	// faultEvents holds the plan's events as des.Runners, so scheduling
	// them allocates nothing once the slice has grown.
	faultEvents []faultEvent // lint:immutable: refilled in full by runSetup before any is scheduled

	// Wire scratch: one decoder for the receive path and one outgoing
	// message per type for the send path. The simulation is
	// single-threaded and messages are consumed before the next is built,
	// so per-network scratch makes the whole protocol layer frame traffic
	// without allocating.
	dec       wire.Decoder // lint:immutable: scratch, overwritten before every use
	outHello  wire.Hello   // lint:immutable: scratch, overwritten before every use
	outDissem wire.Dissem  // lint:immutable: scratch, overwritten before every use
	outSearch wire.Search  // lint:immutable: scratch, overwritten before every use
	outChange wire.Change  // lint:immutable: scratch, overwritten before every use
	outData   wire.Data    // lint:immutable: scratch, overwritten before every use
	frame     []byte       // lint:immutable: marshal scratch, overwritten before every use

	// Receive-path decode cache: decMsg is the radio frame being delivered,
	// decoded at its first reception (nil if it does not decode) and shared
	// read-only by all its receivers, and decKey its receive-action key.
	// For a DISSEM, decPos places each entry in the sender's closed
	// neighbourhood. decRow is the rank row of the edge being delivered,
	// whose first entry places the sender in the receiver's Ninfo table
	// (see receive).
	decMsg wire.Message // lint:immutable: scratch, overwritten at each frame's first reception
	decKey int          // lint:immutable: scratch, overwritten at each frame's first reception
	decPos []int32      // lint:immutable: scratch, overwritten at each frame's first reception
	decRow []uint16     // lint:immutable: scratch, overwritten before every delivery

	partSeen  []bool        // lint:immutable: partitioned's scratch, cleared before every use
	partQueue []topo.NodeID // lint:immutable: partitioned's scratch, emptied before every use

	// The Ninfo tables (see infoTable), built on the first run: ranks are
	// the graph's rank rows, and infoArena and relArena hold every node's
	// entries and relation bits back to back. Node resets rewind both.
	ranks     *topo.RankRows // lint:immutable: per-graph wiring, bound once by buildInfoTables
	infoArena []info         // lint:immutable: backing array, allocated once by buildInfoTables
	relArena  []rel          // lint:immutable: backing array, allocated once by buildInfoTables

	periodTick periodTick // lint:immutable: rebound via rearm() on every setup
}

// periodTick is the reusable period-boundary event that drives every
// attacker's NextPeriod clock (§VI-C: the attackers know the period).
type periodTick struct{ n *Network }

func (p periodTick) Run() {
	now := p.n.sim.Now()
	for _, atk := range p.n.atks {
		atk.NextPeriodAt(now)
	}
}

// NewNetwork validates and wires up a run. The attacker starts at the sink
// (as in the paper) regardless of cfg.Attacker.Start.
func NewNetwork(g *topo.Graph, sink, source topo.NodeID, cfg Config, seed uint64) (*Network, error) {
	if !g.Valid(sink) || !g.Valid(source) {
		return nil, fmt.Errorf("core: invalid sink %d or source %d", sink, source)
	}
	if sink == source {
		return nil, fmt.Errorf("core: sink and source must differ")
	}
	sinkDist := g.BFSFrom(sink)
	deltaSS, sinkEcc := -1, 0
	for id, d := range sinkDist {
		if topo.NodeID(id) == source {
			deltaSS = d
		}
		if d > sinkEcc {
			sinkEcc = d
		}
	}
	if deltaSS < 0 {
		return nil, fmt.Errorf("core: source unreachable from sink")
	}

	sim := des.New()
	net := &Network{
		g:       g,
		sink:    sink,
		source:  source,
		seed:    seed,
		sim:     sim,
		medium:  radio.New(sim, g, seed),
		engine:  gcn.NewEngine(sim, nodeProgram),
		deltaSS: deltaSS,
		sinkEcc: sinkEcc,
		env: protocol.Env{
			Graph:    g,
			Sink:     sink,
			Source:   source,
			SinkDist: sinkDist,
		},
		partSeen:  make([]bool, g.Len()),
		partQueue: make([]topo.NodeID, 0, g.Len()),
	}
	net.periodTick = periodTick{n: net}
	net.medium.SetReceiver(net.receive)

	net.nodes = nodeSlab(g.Len())
	for id := topo.NodeID(0); int(id) < g.Len(); id++ {
		newNode(&net.nodes[id], id, net)
	}

	if err := net.Reset(cfg, seed); err != nil {
		return nil, err
	}
	return net, nil
}

// Reset rewinds the network for a fresh run with a new configuration and
// seed on the same (graph, sink, source). Everything per-run — simulator
// clock and queue, medium channel state and pools, GCN timers, node
// protocol state, random streams, counters — is restored to its
// just-constructed state without reallocating the wiring, and the
// attackers are built anew, so Reset costs a small fraction of
// NewNetwork. Two runs of the same (config, seed) produce identical
// Results whether they share a Network via Reset or use fresh ones; the
// arena tests pin this.
func (n *Network) Reset(cfg Config, seed uint64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}

	n.cfg = cfg
	n.seed = seed

	budget := cfg.EventBudget
	if budget == 0 {
		budget = 50_000_000
	}
	n.energyOn = !cfg.Energy.Empty()
	var meter radio.EnergyMeter
	if n.energyOn {
		meter = n
	}
	n.firstDeathAt = 0
	n.lifetimeAt = 0
	n.lifetimeEnded = false

	n.sim.Reset()
	n.sim.SetEventBudget(budget)
	n.medium.Reset(seed, cfg.Channel, cfg.Collisions, meter)
	n.engine.Reset()

	n.period = time.Duration(cfg.Slots) * cfg.SlotPeriod
	// Safety period (§VI-B): C = period × (Δss + 1); δ = Cs · C.
	n.delta = cfg.SafetyFactor * float64(n.deltaSS+1)
	n.dataStart = time.Duration(cfg.MinimumSetupPeriods) * n.period
	n.deadline = n.dataStart + time.Duration(n.delta*float64(n.period))

	for i := range n.nodes {
		n.nodes[i].reset(seed)
	}

	n.msgStats = [msgStatsSlots]MsgStats{}
	n.res = Result{
		Protocol:     cfg.Protocol.Label,
		Seed:         seed,
		Nodes:        n.g.Len(),
		DeltaSS:      n.deltaSS,
		SafetyPeriod: n.delta,
		DataStart:    n.dataStart,
		Strategy:     cfg.Strategy.Name,
		Attackers:    cfg.AttackerCount,
		// -1: no capture, repair or depletion death seen (yet), and no
		// lifetime verdict for energy-off runs.
		CaptureBy:        -1,
		RepairPeriods:    -1,
		FirstDeathPeriod: -1,
		LifetimePeriods:  -1,
	}

	// Mint the fault plan for this (config, seed). The expansion draws
	// only from its own named stream — and only when the spec is non-empty
	// — so it cannot perturb any other consumer of the run seed.
	n.faultPlan = nil
	if !cfg.Faults.Empty() {
		plan, err := fault.New(cfg.Faults, fault.Env{
			Graph:     n.g,
			Sink:      n.sink,
			Source:    n.source,
			DataStart: n.dataStart,
			Period:    n.period,
			Horizon:   n.horizon(),
		}, seed)
		if err != nil {
			return err
		}
		n.faultPlan = plan
	}
	n.firstFaultAt = 0
	n.lastFaultAt = 0
	n.lastRepairAt = 0
	n.seqDelivered = n.seqDelivered[:0]

	params := cfg.Attacker
	params.Start = n.sink
	var shared *attacker.HistoryStore
	if cfg.SharedHistory {
		shared = attacker.NewHistoryStore(params.H)
	}
	n.atks = n.atks[:0]
	for i := 0; i < cfg.AttackerCount; i++ {
		atk, err := attacker.New(n.g, params, cfg.Strategy.New(), n.source, seed, i)
		if err != nil {
			return err
		}
		if shared != nil {
			atk.ShareHistory(shared)
		}
		if cfg.PathCap != 0 {
			// PathRecordingOff maps to the attacker's "start only" cap.
			atk.SetPathCap(cfg.PathCap)
		}
		n.atks = append(n.atks, atk)
	}
	return nil
}

// horizon is the instant the run ends: the capture deadline plus one
// period of settle margin (see Run). No fault event may land after it.
func (n *Network) horizon() time.Duration {
	return n.deadline + n.period
}

// ChargeTx implements radio.EnergyMeter: bill the sender for one frame.
//
//slp:hotpath
func (n *Network) ChargeTx(id topo.NodeID, bytes int) {
	n.charge(id, n.cfg.Energy.TxCost*float64(bytes))
}

// ChargeRx implements radio.EnergyMeter: bill a receiver for one
// reception window, survive it or not.
//
//slp:hotpath
func (n *Network) ChargeRx(id topo.NodeID, bytes int) {
	n.charge(id, n.cfg.Energy.RxCost*float64(bytes))
}

// charge spends mJ from id's battery and crash-stops the node at
// depletion. The sink and the source are mains-powered: they account
// spend but never die, keeping the privacy question well-posed.
//
//slp:hotpath
func (n *Network) charge(id topo.NodeID, mJ float64) {
	nd := &n.nodes[id]
	nd.energyUsed += mJ
	if !nd.energyDead && nd.energyUsed >= n.cfg.Energy.Capacity && id != n.sink && id != n.source {
		n.depleted(id)
	}
}

// depleted kills a node whose battery just ran out: permanent fail-stop
// through the fault-injection path, plus the first-death and
// network-lifetime verdicts. Cold path — each node depletes at most once
// per run.
func (n *Network) depleted(id topo.NodeID) {
	nd := &n.nodes[id]
	nd.energyDead = true
	n.res.EnergyDeaths++
	if n.res.EnergyDeaths == 1 {
		n.firstDeathAt = n.sim.Now()
	}
	n.crashNode(id)
	if !n.lifetimeEnded && n.partitioned() {
		n.lifetimeEnded = true
		n.lifetimeAt = n.sim.Now()
	}
}

// crashNode fails a node mid-run: radio silent, GCN computation stopped,
// TDMA periods skipped. Idempotent — a node already down stays down.
func (n *Network) crashNode(id topo.NodeID) {
	nd := &n.nodes[id]
	if nd.prc.Dead() {
		return
	}
	// Fault-free runs report no failures, depletion deaths included.
	if n.faultPlan != nil {
		n.res.NodesFailed++
	}
	n.medium.DisableNode(id)
	nd.prc.Fail()
}

// recoverNode rejoins a crashed node with blank volatile state, like a
// reboot from ROM: the protocol state is re-zeroed (the per-node stream
// replays from its seed, keeping the run deterministic), the radio
// re-enabled, and neighbour discovery re-run so the node can re-acquire
// hop, parent and slot from its neighbours' disseminations.
func (n *Network) recoverNode(id topo.NodeID) {
	nd := &n.nodes[id]
	if !nd.prc.Dead() || nd.energyDead {
		// A battery-depleted node has nothing to reboot with: depletion is
		// permanent, churn recovery cannot resurrect it.
		return
	}
	n.res.NodesRecovered++
	used := nd.energyUsed
	nd.reset(n.seed)
	// A reboot does not recharge the battery: the spend survives the
	// volatile-state wipe.
	nd.energyUsed = used
	nd.prc.Revive()
	n.medium.EnableNode(id)
	if id == n.sink {
		(*sinkStart)(nd).Run()
	}
	if err := n.scheduleDiscovery(nd, n.sim.Now()); err != nil {
		panic(err) // unreachable: every instant is counted from now
	}
}

// scheduleDiscovery schedules node nd's boot and neighbour discovery from
// the instant start: a boot jitter, then NDP rounds of HELLO, one per
// dissemination period, each jittered within the first half of its round.
// The first boot and a rejoin after a crash run the same schedule.
func (n *Network) scheduleDiscovery(nd *node, start time.Duration) error {
	boot := nd.jitterDelay(bootJitter)
	for k := 0; k < n.cfg.NeighbourDiscoveryPeriods; k++ {
		at := start + boot + time.Duration(k)*n.cfg.DisseminationPeriod + nd.jitterDelay(n.cfg.DisseminationPeriod/2)
		if _, err := n.sim.Schedule(at, nd.helloFn); err != nil {
			return err
		}
	}
	return nil
}

// faultEvent is one event of the run's fault plan as a des.Runner.
type faultEvent struct {
	n  *Network
	ev fault.Event
}

// Run applies the event. runSetup refuses a plan with any other op.
func (f *faultEvent) Run() {
	switch f.ev.Op {
	case fault.OpCrash:
		f.n.crashNode(f.ev.Node)
	case fault.OpRecover:
		f.n.recoverNode(f.ev.Node)
	case fault.OpLinkDown:
		f.n.medium.DisableLink(f.ev.Node, f.ev.Peer)
	}
}

// SafetyPeriods returns δ expressed in TDMA periods.
func (n *Network) SafetyPeriods() float64 { return n.delta }

// DeltaSS returns the sink–source hop distance.
func (n *Network) DeltaSS() int { return n.deltaSS }

// rankKey orders sibling competitors under a parent: a per-run pseudo
// random permutation every node agrees on (see node.chooseSlot).
func (n *Network) rankKey(parent, competitor topo.NodeID) uint64 {
	return xrand.Mix(n.seed, 0x72616e6b, uint64(parent), uint64(competitor))
}

// orderKey is the per-run total order replacing raw node IDs in
// collision-resolution tie-breaks (see node.collisionLoser).
func (n *Network) orderKey(id topo.NodeID) uint64 {
	return xrand.Mix(n.seed, 0x6f726465, uint64(id))
}

// parentKey is the per-run, per-child order used to break ties among
// minimum-hop potential parents (see node.chooseSlot).
func (n *Network) parentKey(child, parent topo.NodeID) uint64 {
	return xrand.Mix(n.seed, 0x70617265, uint64(child), uint64(parent))
}

// broadcast marshals and transmits a protocol message, accounting stats.
// The message may live in the network's outgoing scratch; it is fully
// consumed (framed and copied by the medium) before broadcast returns.
//
//slp:hotpath
func (n *Network) broadcast(from topo.NodeID, msg wire.Message) {
	n.frame = wire.AppendFrame(n.frame[:0], msg)
	st := &n.msgStats[msg.Kind()]
	st.Count++
	st.Bytes += uint64(len(n.frame))
	n.medium.Broadcast(from, n.frame)
}

func (n *Network) recordSourceDelivery(seq uint32) {
	n.res.SourceDeliveries++
	// Latency in periods: sequence numbers are period indices, so arrival
	// period minus origination period. Event-driven families read the
	// arrival period off the clock. TDMA families read the sink's
	// dataPeriod, which only fireDataSlot stamps, and the sink holds slot
	// Δ, which never fires: the field stays 0, so every delivery with
	// seq > 0 gets a negative latency and is dropped here. This is a known
	// fault, kept because the benchmark digests pin the counts it yields
	// (see ROADMAP.md, "TDMA delivery latency").
	period := n.nodes[n.sink].dataPeriod
	if !n.cfg.Protocol.TDMAData {
		period = int((n.sim.Now() - n.dataStart) / n.period)
	}
	lat := period - int(seq)
	if lat >= 0 {
		n.res.DeliveryCount++
		n.res.DeliveryLatencySum += lat
	}
	// Unique-sequence tracking for the degradation windows (fault runs
	// only): sequence numbers are origination period indices.
	if n.faultPlan != nil {
		if p := int(seq); p < len(n.seqDelivered) {
			n.seqDelivered[p] = true
		}
	}
}

// minSlabNodes is the fewest nodes a slab allocates: 128 nodes of 320
// bytes are 40 KiB, past the runtime's largest small-object size (32 KiB),
// so every slab is a large object, which starts on a page boundary. A
// smaller slab would be a small object whose first 8 bytes the runtime
// may keep for an allocation header, shifting every node off its line.
const minSlabNodes = 128

// nodeSlab allocates the n nodes of a network in one array whose every
// element starts on a cache line: node is a whole number of lines (see
// node), and the array starts on a page. The slab's capacity past n is
// never used.
func nodeSlab(n int) []node {
	return make([]node, n, max(n, minSlabNodes))
}

// receive is the medium's receiver: a frame from node from reaches node to
// along edge, to's index among from's neighbours. The frame's first
// reception decodes and classifies it for all of them and, for a DISSEM,
// places its entries in the sender's closed neighbourhood; each reception
// then takes its edge's rank row, which places the sender, and for a
// DISSEM its entries, in the receiver's Ninfo table with no search, and
// runs the receive action at once.
//
//slp:hotpath
func (n *Network) receive(first bool, from, to topo.NodeID, edge int, payload []byte) {
	if first {
		n.decMsg, _ = n.dec.Unmarshal(payload)
		if d, ok := n.decMsg.(*wire.Dissem); ok && !n.placeDissem(from, d.Infos) {
			n.decMsg = nil
		}
		if n.decMsg != nil {
			n.decKey = receiveKey(n.decMsg)
		}
	}
	if n.decMsg == nil {
		n.res.DecodeErrors++
		return
	}
	n.decRow = n.ranks.Row(from, edge)
	n.engine.Deliver(&n.nodes[to].prc, from, n.decKey, n.decMsg)
}

// placeDissem fills decPos with each DISSEM entry's place in the closed
// neighbourhood of the sender: 0 for the sender, j+1 for its j-th
// neighbour. buildDissem lists the sender, then its myN ascending, so one
// forward walk (seek) places them all. It reports false, making the frame
// undecodable, when an entry is about a node that is neither the sender
// nor one of its neighbours, or carries version 2³²−1, which an info
// entry cannot store (see info); the simulator's own frames never do.
//
//slp:hotpath
func (n *Network) placeDissem(from topo.NodeID, infos []wire.NodeInfo) bool {
	nbrs := n.g.Neighbors(from)
	n.decPos = n.decPos[:0]
	j := 0
	for k := range infos {
		in := &infos[k]
		if in.Version == math.MaxUint32 {
			return false
		}
		if in.Node == from {
			n.decPos = append(n.decPos, 0)
			continue
		}
		if j = seek(nbrs, j, in.Node); j == len(nbrs) || nbrs[j] != in.Node {
			return false
		}
		j++
		n.decPos = append(n.decPos, int32(j))
	}
	return true
}

// seek returns the position slices.BinarySearch(ids, id) reports, given
// the position i the previous lookup in ids returned. When id is above
// the previous ID, as each entry of a DISSEM's ascending neighbour list is,
// it walks forward from there, a merge join; any other ID falls back to a
// binary search, so placeDissem's answers never depend on the order of
// the entries.
//
//slp:hotpath
func seek(ids []topo.NodeID, i int, id topo.NodeID) int {
	if i == 0 || ids[i-1] >= id {
		i, _ = slices.BinarySearch(ids, id)
		return i
	}
	for i < len(ids) && ids[i] < id {
		i++
	}
	return i
}

// buildInfoTables binds every node's Ninfo table to its two-hop set, once
// per network, on its first run: NewNetwork allocates no table, so a
// network that is wired but never run costs nothing here.
func (n *Network) buildInfoTables() error {
	if n.ranks != nil {
		return nil
	}
	ranks, err := n.g.TwoHopRanks()
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	total := 0
	for id := range n.nodes {
		total += len(n.g.TwoHop(topo.NodeID(id)))
	}
	n.infoArena = make([]info, total)
	n.relArena = make([]rel, total)
	off := 0
	for id := range n.nodes {
		nd := &n.nodes[id]
		set := n.g.TwoHop(topo.NodeID(id))
		end := off + len(set)
		nd.ninfo.ids = set
		nd.ninfo.infos = n.infoArena[off:end:end]
		nd.ninfo.rels = n.relArena[off:end:end]
		nd.ninfo.reset()
		off = end
	}
	n.ranks = ranks
	return nil
}

// runSetup schedules boots, discovery, dissemination, search and the fault
// plan, and runs the setup phases up to the data phase's start.
func (n *Network) runSetup() error {
	if err := n.buildInfoTables(); err != nil {
		return err
	}
	dissemStart := time.Duration(n.cfg.NeighbourDiscoveryPeriods)*n.cfg.DisseminationPeriod + bootJitter

	for i := range n.nodes {
		if err := n.scheduleDiscovery(&n.nodes[i], 0); err != nil {
			return err
		}
	}

	// Sink starts Phase 1 after discovery.
	sinkNode := &n.nodes[n.sink]
	if err := n.sim.ScheduleRunner(dissemStart, (*sinkStart)(sinkNode)); err != nil {
		return err
	}

	// Phase 2 launch (families with a search phase only).
	if n.cfg.Protocol.SearchPhase {
		searchAt := dissemStart + n.searchStartDelay()
		if err := n.sim.ScheduleRunner(searchAt, (*searchStart)(sinkNode)); err != nil {
			return err
		}
	}

	// Fault plan: schedule every event of the deterministic plan minted at
	// Reset, in plan order so events sharing a time keep their (Op, Node)
	// tie-break, and record the fault window for the degradation metrics.
	// The events are scheduled only once faultEvents is full, so no
	// scheduled pointer moves.
	if n.faultPlan != nil {
		n.faultEvents = n.faultEvents[:0]
		for _, ev := range n.faultPlan.Events {
			switch ev.Op {
			case fault.OpCrash, fault.OpRecover, fault.OpLinkDown:
			default:
				return fmt.Errorf("core: fault plan holds unknown op %v", ev.Op)
			}
			n.faultEvents = append(n.faultEvents, faultEvent{n: n, ev: ev})
		}
		for i := range n.faultEvents {
			if err := n.sim.ScheduleRunner(n.faultEvents[i].ev.At, &n.faultEvents[i]); err != nil {
				return err
			}
		}
		n.firstFaultAt, n.lastFaultAt = n.faultPlan.Window()
		periods := int(math.Ceil(n.delta)) + 2
		if cap(n.seqDelivered) >= periods {
			n.seqDelivered = n.seqDelivered[:periods]
			clear(n.seqDelivered)
		} else {
			n.seqDelivered = make([]bool, periods)
		}
	}
	if err := n.sim.RunUntil(n.dataStart); err != nil {
		return err
	}
	return n.engine.Err()
}

// searchStartDelay derives when (after dissemination starts) the sink
// launches Phase 2, assuming Phase 1 has settled.
func (n *Network) searchStartDelay() time.Duration {
	// The assignment wave travels one hop per dissemination round; give it
	// the network eccentricity plus the full resend budget, doubled for
	// collision-resolution churn. The eccentricity is a property of the
	// (graph, sink) pair, precomputed at wiring time.
	rounds := 2 * (n.sinkEcc + n.cfg.DisseminationTimeout + 4)
	return time.Duration(rounds) * n.cfg.DisseminationPeriod
}

// startDataPhase starts every node's TDMA periods, the attacker clock and
// the capture stop condition.
func (n *Network) startDataPhase() error {
	// Pure-TDMA families start each node's first period, in node order;
	// event-driven families start none and drive all DATA traffic through
	// StartData.
	if n.cfg.Protocol.TDMAData {
		for i := range n.nodes {
			if err := n.sim.ScheduleRunner(n.dataStart, (*periodStart)(&n.nodes[i])); err != nil {
				return err
			}
		}
	}

	for _, atk := range n.atks {
		n.medium.AddObserver(atk)
		// Activating at the data-phase start stamps a capture that exists
		// at activation — the attacker already standing on the source —
		// with that time.
		atk := atk
		if _, err := n.sim.Schedule(n.dataStart, func() { atk.ActivateAt(n.dataStart) }); err != nil {
			return err
		}
		// Capture = first of the team to reach the source: any capture
		// ends the hunt for everyone.
		atk.OnCapture = func(time.Duration) { n.sim.Stop() }
	}
	// The attackers know the period length (§VI-C): align NextPeriod.
	periods := int(math.Ceil(n.delta)) + 2
	for k := 1; k <= periods; k++ {
		at := n.dataStart + time.Duration(k)*n.period
		if err := n.sim.ScheduleRunner(at, &n.periodTick); err != nil {
			return err
		}
	}
	// Family-driven traffic. The paper's pair has none, so their event
	// order is that of the TDMA schedule alone.
	start := n.cfg.Protocol.StartData
	if start == nil {
		return nil
	}
	return start(n, &n.env, protocol.Params{
		SearchDistance: n.cfg.SearchDistance,
		DataStart:      n.dataStart,
		SlotDuration:   n.cfg.SlotPeriod,
		Period:         n.period,
		Periods:        periods,
	}, n.seed)
}

// --- protocol.Host ---

// Now implements protocol.Host: the simulation clock.
func (n *Network) Now() time.Duration { return n.sim.Now() }

// Schedule implements protocol.Host: run fn at the absolute time at.
func (n *Network) Schedule(at time.Duration, fn func()) error {
	_, err := n.sim.Schedule(at, fn)
	return err
}

// SendData implements protocol.Host: broadcast one DATA frame from the
// given node through the network's frame-accounted send path, so family
// traffic shows up in message stats and attacker observations exactly
// like node traffic.
func (n *Network) SendData(from, origin topo.NodeID, seq uint32, count uint16) {
	d := &n.outData
	d.From = from
	d.Origin = origin
	d.Seq = seq
	d.Count = count
	n.broadcast(from, d)
}

// RunSetup executes only the setup phases (discovery, dissemination and —
// for SLP — search and refinement) and returns the resulting slot
// assignment. Used to extract schedules for VerifySchedule and benches.
func (n *Network) RunSetup() (*schedule.Assignment, error) {
	if err := n.runSetup(); err != nil {
		return nil, err
	}
	return n.Assignment(), nil
}

// Changed reports whether Phase 3 altered node id's slot.
func (n *Network) Changed(id topo.NodeID) bool { return n.nodes[id].changed }

// Assignment snapshots the current slot assignment.
func (n *Network) Assignment() *schedule.Assignment {
	a := schedule.New(n.g.Len(), n.sink)
	for i := range n.nodes {
		if nd := &n.nodes[i]; nd.slot != noValue {
			a.Set(nd.id, int(nd.slot))
		}
	}
	return a
}

// Run executes the complete lifecycle and gathers the result.
func (n *Network) Run() (*Result, error) {
	if err := n.runSetup(); err != nil {
		return nil, err
	}
	if err := n.startDataPhase(); err != nil {
		return nil, err
	}
	// One extra period of margin lets in-flight frames settle; captures
	// are judged against the deadline, not the simulation horizon.
	if err := n.sim.RunUntil(n.deadline + n.period); err != nil {
		return nil, err
	}
	if err := n.engine.Err(); err != nil {
		return nil, err
	}
	return n.collect(), nil
}

// collect returns the run's Result: a copy of res, so a later run on
// this Network cannot write into it, with the end-of-run facts filled in.
func (n *Network) collect() *Result {
	res := n.res
	res.Assignment = n.Assignment()
	res.Messages = make(map[wire.Type]MsgStats, msgStatsSlots)
	res.RadioStats = n.medium.Stats()
	res.SearchSent = n.msgStats[wire.TypeSearch].Count > 0
	for t, s := range n.msgStats {
		if s.Count > 0 {
			res.Messages[wire.Type(t)] = s
		}
	}
	// Capture = the first eavesdropper to reach the source within the
	// safety deadline; ties on time break by attacker index.
	for i, atk := range n.atks {
		res.AttackerPaths = append(res.AttackerPaths, atk.Path())
		res.AttackerMoves = append(res.AttackerMoves, atk.Moves())
		captured, at := atk.Captured()
		if !captured || at > n.deadline {
			continue
		}
		if !res.Captured || at < res.CaptureAt {
			res.Captured = true
			res.CaptureAt = at
			res.CaptureBy = i
			res.CapturePeriods = float64(at-n.dataStart) / float64(n.period)
		}
	}
	// AttackerPath stays the single-attacker view: the capturing
	// attacker's walk, or the first attacker's when no one captured.
	if res.CaptureBy >= 0 {
		res.AttackerPath = res.AttackerPaths[res.CaptureBy]
	} else {
		res.AttackerPath = res.AttackerPaths[0]
	}
	if now := n.sim.Now(); now > n.dataStart {
		res.PeriodsRun = float64(now-n.dataStart) / float64(n.period)
	}

	res.WeakViolations, res.StrongViolations, res.CollisionViolations, res.RangeViolations =
		schedule.Count(n.g, res.Assignment, n.env.SinkDist, n.cfg.Slots)

	// Energy verdicts (energy runs only; energy-off runs report the zero
	// totals and the -1 sentinels).
	if n.energyOn {
		var total, peak float64
		for i := range n.nodes {
			nd := &n.nodes[i]
			total += nd.energyUsed
			if nd.energyUsed > peak {
				peak = nd.energyUsed
			}
		}
		res.EnergyTotalMJ = total
		res.EnergyMaxMJ = peak
		res.EnergyMeanMJ = total / float64(len(n.nodes))
		period := float64(n.period)
		if res.EnergyDeaths > 0 {
			res.FirstDeathPeriod = float64(n.firstDeathAt-n.dataStart) / period
		}
		if n.lifetimeEnded {
			res.LifetimePeriods = float64(n.lifetimeAt-n.dataStart) / period
		} else {
			res.LifetimePeriods = res.PeriodsRun
		}
	}

	// Degradation verdicts (fault runs only; fault-free runs report the
	// zero values and RepairPeriods = -1).
	if n.faultPlan != nil {
		if n.lastRepairAt > n.firstFaultAt {
			res.RepairPeriods = float64(n.lastRepairAt-n.firstFaultAt) / float64(n.period)
		}
		res.PartitionDetected = n.partitioned()
		res.DeliveryBefore, res.DeliveryDuring, res.DeliveryAfter = n.deliveryWindows(res.PeriodsRun)
	}
	return &res
}

// deliveryWindows splits the unique-sequence delivery record at the fault
// window [firstFaultAt, lastFaultAt] and returns the per-window delivery
// ratios: sequences delivered / data periods originated in the window.
func (n *Network) deliveryWindows(periodsRun float64) (before, during, after float64) {
	total := int(periodsRun)
	if total > len(n.seqDelivered) {
		total = len(n.seqDelivered)
	}
	period := n.period
	fp := int((n.firstFaultAt - n.dataStart) / period)
	if fp < 0 {
		fp = 0
	}
	lp := int((n.lastFaultAt - n.dataStart) / period)
	if lp < fp {
		lp = fp
	}
	ratio := func(lo, hi int) float64 {
		if lo < 0 {
			lo = 0
		}
		if hi > total {
			hi = total
		}
		if hi <= lo {
			return 0
		}
		got := 0
		for p := lo; p < hi; p++ {
			if n.seqDelivered[p] {
				got++
			}
		}
		return float64(got) / float64(hi-lo)
	}
	return ratio(0, fp), ratio(fp, lp+1), ratio(lp+1, total)
}

// partitioned reports whether source and sink are separated: one of them
// dead, or no path of alive nodes over intact links between them. It runs
// at collect on fault runs, and after each depletion death until the
// lifetime verdict latches, searching on the network's scratch.
func (n *Network) partitioned() bool {
	if n.nodes[n.sink].prc.Dead() || n.nodes[n.source].prc.Dead() {
		return true
	}
	visited := n.partSeen
	clear(visited)
	visited[n.sink] = true
	queue := append(n.partQueue[:0], n.sink) // each node is queued at most once
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		if v == n.source {
			return false
		}
		for _, w := range n.g.Neighbors(v) {
			if visited[w] || n.nodes[w].prc.Dead() || n.medium.LinkDisabled(v, w) {
				continue
			}
			visited[w] = true
			queue = append(queue, w)
		}
	}
	return true
}
