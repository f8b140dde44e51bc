// Package radio simulates the shared wireless medium: broadcast over the
// unit-disk connectivity of a topology, pluggable physical channels from
// internal/channel, a receiver-side collision model — binary windows, or
// SINR capture when the channel provides received powers — per-node
// energy charging through an EnergyMeter, and eavesdropper taps through
// which the attacker overhears transmissions. Together with internal/des
// it replaces the TOSSIM radio stack used by the paper's evaluation.
//
// The broadcast→delivery path is the simulator's hottest loop, so it is
// built to allocate nothing in steady state and to cost one event per
// broadcast, not one per reception: each broadcast is a single pooled
// frame, a typed des.Runner that at the end of the reception window runs
// every in-range reception in neighbour order and then the eavesdropper
// scan. The frame owns the payload bytes, so all its receivers see one
// buffer, back to back, and the first of them is flagged: a receiver that
// decodes needs to decode each frame only once. The SINR accumulator keeps
// that discipline: contention is float accumulation into per-receiver
// arrays, and the capture verdict at delivery is branch-and-multiply only.
package radio

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"slpdas/internal/channel"
	"slpdas/internal/des"
	"slpdas/internal/topo"
	"slpdas/internal/xrand"
)

// IEEE 802.15.4-flavoured PHY timing, fixed for every medium: 250 kbit/s
// payload rate plus a fixed synchronisation overhead per frame.
const (
	// DefaultBitrate is the payload bitrate in bits per second.
	DefaultBitrate = 250_000
	// DefaultFrameOverhead is the preamble/SFD/PHY-header airtime.
	DefaultFrameOverhead = 160 * time.Microsecond
	// DefaultPropagationDelay is the (negligible) propagation latency.
	DefaultPropagationDelay = time.Microsecond
)

// Receiver consumes every frame the medium delivers, one call per
// reception: frame from node from arriving at node to, which is
// Neighbors(from)[edge] in the medium's graph. A frame's receptions arrive
// in ascending edge order. Receivers that keep per-edge state (a rank row,
// a link estimate) index it by edge directly, with no search for to among
// the sender's neighbours.
//
// The payload slice is owned by the medium's frame pool and is only valid
// for the duration of the call; receivers that keep payload bytes must
// copy them. A frame's receptions are delivered back to back, with no
// other frame's between them, and first is true on the first delivered
// reception of each frame and false on the rest, which get the same
// payload. Receivers that decode may therefore decode when first is true
// and share the decoded message among that frame's receptions, which must
// treat it as read-only.
type Receiver func(first bool, from, to topo.NodeID, edge int, payload []byte)

// Observation is what an eavesdropper perceives about one transmission:
// who transmitted, from where, and when — never the payload (the paper
// assumes encrypted content; only context leaks).
type Observation struct {
	At    time.Duration // time the transmission ended (fully observed)
	From  topo.NodeID
	Pos   topo.Point
	Bytes int
}

// Observer is notified of every transmission whose sender is within radio
// range of the observer.
//
// Audibility convention: a transmission is judged at the moment it ends —
// the instant the Observation is delivered. The observer set and each
// observer's Location() are read then, so an observer that relocates while
// a frame is on the air hears it (or not) according to where it is when
// the frame completes, consistently with Observation.At, which is also the
// end-of-transmission time.
type Observer interface {
	// Location returns the observer's current position.
	Location() topo.Point
	// Overhear is called once per audible transmission.
	Overhear(obs Observation)
}

// Stats aggregates medium-level counters for the overhead experiment.
type Stats struct {
	Broadcasts     uint64 // frames transmitted
	BytesSent      uint64 // payload bytes transmitted
	Deliveries     uint64 // frame receptions delivered to receivers
	LossDrops      uint64 // receptions dropped by the loss model
	CollisionDrops uint64 // receptions dropped by collisions
	CaptureWins    uint64 // receptions delivered despite interference (SINR capture)
	SINRDrops      uint64 // receptions dropped by the SINR capture test
}

// EnergyMeter is charged by the medium for radio activity: once per
// transmitted frame at the sender, once per reception window at each
// in-range receiver — whether or not the frame survives corruption, since
// the radio pays for listening either way. A nil meter disables charging.
// core.Network implements this to drive battery depletion.
type EnergyMeter interface {
	// ChargeTx bills node n for transmitting a payload of `bytes` bytes.
	ChargeTx(n topo.NodeID, bytes int)
	// ChargeRx bills node n for receiving a payload of `bytes` bytes.
	ChargeRx(n topo.NodeID, bytes int)
}

// Medium is the shared broadcast channel. It is not safe for concurrent
// use; the simulator is single-threaded by design.
type Medium struct {
	sim *des.Simulator // lint:immutable: simulator wiring, fixed at construction
	g   *topo.Graph    // lint:immutable: topology wiring, fixed at construction
	// The run's channel, by kind (see channel.Model): a frame model is
	// asked on every candidate reception, a link model once per directed
	// edge per run through edgePower.
	frameCh    channel.FrameModel
	linkCh     channel.LinkModel
	collisions bool
	sinr       bool                  // capture model active (derived from linkCh)
	capture    channel.CaptureParams // cached linkCh.Capture() parameters
	meter      EnergyMeter
	pcg        rand.PCG   // owned so Reset can reseed rng in place
	rng        *rand.Rand // lint:immutable: wraps &pcg; Reset reseeds the pcg in place
	// seed is the run seed, which keys every link's fade (see linkFade);
	// fadePCG is the scratch generator behind the fade draws.
	seed    uint64
	fadePCG rand.PCG   // lint:immutable: reseeded from (seed, link) before every draw
	fadeRng *rand.Rand // lint:immutable: wraps &fadePCG; reseeding the pcg rewinds it

	recv     Receiver // lint:immutable: registration wiring, set once by SetReceiver
	disabled []bool
	// downLinks holds failed links keyed by packed (min, max) node-ID pair.
	// Lookups are guarded by len(downLinks) != 0, so the no-link-fault fast
	// path never touches the map.
	downLinks map[uint64]bool
	// observers are scanned at each transmission end in registration
	// order, which keeps the scan deterministic.
	observers []Observer

	// Collision window state, per receiving node: rxEnd is the end of the
	// latest reception window, rxLatest the reception owning it (the
	// latest-ending one, or under SINR capture the strongest). rxLatest
	// points into a frame in the air and is cleared when that reception
	// runs, so it never reaches back into the pool. Under SINR capture,
	// rxSum accumulates the total received power of the open window and
	// rxBest tracks the strongest single reception in it.
	rxEnd    []time.Duration
	rxLatest []*reception
	rxSum    []float64
	rxBest   []float64

	// edgePower holds, under a link channel, each directed edge's verdict
	// for the run, indexed by g.FirstEdge(from)+k for the edge to
	// Neighbors(from)[k]: 0 until the edge's first candidate reception asks
	// the channel, then the received power in mW, or lostEdge. It is the
	// medium's one per-run link cache. Allocated by the first Reset that
	// installs a link channel; media that never run one never touch it.
	edgePower []float64

	freeFrames []*frame // lint:immutable: free list; pooled objects carry no cross-run state

	stats Stats
}

// frame is one broadcast in flight and its single DES event: the payload,
// the sender, and one reception per in-range neighbour that survived the
// loss draw, in neighbour order. Frames are pooled and recycled whole.
type frame struct {
	m    *Medium
	from topo.NodeID
	buf  []byte
	rx   []reception // capacity ≥ sender degree before rxLatest takes &rx[i]
}

// reception is one (frame, in-range neighbour) delivery: to is
// Neighbors(from)[edge]. edge fills the padding before power, so a
// reception stays 16 bytes; New refuses a graph with a degree it cannot
// hold.
type reception struct {
	to        topo.NodeID
	edge      uint16
	corrupted bool
	power     float64 // received power in mW; set under a link channel, read only under SINR capture
}

// maxDegree is the largest sender degree a reception's edge can index.
const maxDegree = math.MaxUint16 + 1

// lostEdge is the edgePower entry of an edge the channel loses: every
// frame across it is dropped for the rest of the run.
const lostEdge = -1

// Run implements des.Runner at the end of the reception window: the frame
// arrives at each receiver in neighbour order, then ends at the
// eavesdroppers. Scheduled as separate events, the receptions and the scan
// would share one instant and hold consecutive sequence numbers, so no
// other event could run between them: running them as one event keeps the
// event order. Each is still charged to the simulator as one executed
// event, so Executed and the event budget count the same work. The first
// reception delivered is flagged first (see Receiver).
//
// A reception only counts if both endpoints are still up and the link is
// still intact at the end of the reception window: a sender that died
// mid-frame stopped keying the carrier, so the tail of its frame never
// arrives, and a receiver that died mid-frame has no stack left to accept
// it. The energy meter is billed before the corruption verdict — the radio
// pays for listening whether or not the frame survives — and a receiver
// whose battery dies on that very charge pays but does not consume, hence
// the second disabled check before the receiver call. A medium with no
// receiver set bills and judges every reception but delivers none.
//
// Observers within range of the sender (at their position now) then
// overhear the transmission. Collisions do not hide the fact that a node
// keyed up: direction finding works on the carrier, not the payload. The
// observer set is read once before the callbacks run, so an observer an
// Overhear adds first hears the next transmission. A sender that died while the frame was on the air never completed
// the transmission, so it is not observed.
//
//slp:hotpath
func (f *frame) Run() {
	m := f.m
	m.sim.CountExecuted(uint64(len(f.rx)))
	first := true
	for i := range f.rx {
		r := &f.rx[i]
		if !m.disabled[r.to] && !m.disabled[f.from] && !m.linkDown(f.from, r.to) {
			if m.meter != nil {
				m.meter.ChargeRx(r.to, len(f.buf))
			}
			switch {
			case r.corrupted:
				m.stats.CollisionDrops++
			case m.sinr && !m.sinrClears(r):
				m.stats.SINRDrops++
			default:
				if m.recv != nil && !m.disabled[r.to] {
					m.stats.Deliveries++
					m.recv(first, f.from, r.to, int(r.edge), f.buf)
					first = false
				}
			}
		}
		if m.rxLatest[r.to] == r {
			m.rxLatest[r.to] = nil
		}
	}
	if !m.disabled[f.from] {
		pos := m.g.Position(f.from)
		obs := Observation{At: m.sim.Now(), From: f.from, Pos: pos, Bytes: len(f.buf)}
		audible := m.g.RadioRange() + 1e-9
		for _, o := range m.observers {
			if pos.DistanceTo(o.Location()) <= audible {
				o.Overhear(obs)
			}
		}
	}
	m.freeFrames = append(m.freeFrames, f)
}

// sinrClears applies the capture test at the end of r's reception window:
// the frame survives iff its received power beats threshold × (noise +
// interference), where interference is every other reception summed into
// the window at r.to. A win over non-zero interference is a capture.
//
//slp:hotpath
func (m *Medium) sinrClears(r *reception) bool {
	interference := m.rxSum[r.to] - r.power
	if interference < 0 {
		interference = 0
	}
	if r.power < m.capture.ThresholdMW*(m.capture.NoiseMW+interference) {
		return false
	}
	if interference > 0 {
		m.stats.CaptureWins++
	}
	return true
}

// contend folds a new reception into the SINR window open at r.to. The
// strongest reception in the window stays a candidate (its final verdict
// is sinrClears at delivery, once the whole window's interference is
// known); every weaker one is corrupted outright — it cannot beat a
// stronger co-channel signal whatever else arrives.
//
//slp:hotpath
func (m *Medium) contend(r *reception, now, endAt time.Duration) {
	to := r.to
	if m.rxEnd[to] <= now {
		// Fresh window: this reception opens it.
		m.rxSum[to] = r.power
		m.rxBest[to] = r.power
		m.rxLatest[to] = r
		m.rxEnd[to] = endAt
		return
	}
	m.rxSum[to] += r.power
	if r.power > m.rxBest[to] {
		if cur := m.rxLatest[to]; cur != nil {
			cur.corrupted = true
		}
		m.rxBest[to] = r.power
		m.rxLatest[to] = r
	} else {
		r.corrupted = true
	}
	if endAt > m.rxEnd[to] {
		m.rxEnd[to] = endAt
	}
}

// New builds a medium over graph g driven by sim, deriving its random
// stream from seed. The medium starts as Reset(seed, nil, false, nil)
// leaves it: ideal channel, collisions off, no energy meter, no receiver.
// It panics if a node of g has more than 65536 neighbours.
func New(sim *des.Simulator, g *topo.Graph, seed uint64) *Medium {
	for n := topo.NodeID(0); int(n) < g.Len(); n++ {
		if d := len(g.Neighbors(n)); d > maxDegree {
			panic(fmt.Sprintf("radio: node %d has %d neighbours, above the medium's %d", n, d, maxDegree))
		}
	}
	m := &Medium{
		sim:      sim,
		g:        g,
		disabled: make([]bool, g.Len()),
		rxEnd:    make([]time.Duration, g.Len()),
		rxLatest: make([]*reception, g.Len()),
		rxSum:    make([]float64, g.Len()),
		rxBest:   make([]float64, g.Len()),
	}
	m.rng = xrand.Wrap(&m.pcg)
	m.fadeRng = xrand.Wrap(&m.fadePCG)
	m.Reset(seed, nil, false, nil)
	return m
}

// Reset rewinds the medium for a fresh run on the same graph: the random
// stream is reseeded in place, the channel swapped for the new run's
// configuration, and all per-run state — failed nodes, collision windows,
// SINR accumulators, link verdicts, observers, counters — cleared. The
// new seed keys every link's fade, so a link channel's verdicts redraw.
// The receiver survives (it is wiring, not run state), as does the frame
// pool, which is the point: a Reset medium broadcasts with warm pools
// from its first frame. The owning simulator must be Reset alongside so
// in-flight frame events from the previous run are discarded. A nil
// channel selects channel.Ideal; any other must be a channel.FrameModel
// or a channel.LinkModel. A nil meter disables energy charging.
func (m *Medium) Reset(seed uint64, ch channel.Model, collisions bool, meter EnergyMeter) {
	if ch == nil {
		ch = channel.Ideal{}
	}
	m.frameCh, _ = ch.(channel.FrameModel)
	m.linkCh, _ = ch.(channel.LinkModel)
	m.capture, m.sinr = channel.CaptureParams{}, false
	if m.linkCh != nil {
		m.capture, m.sinr = m.linkCh.Capture()
	}
	m.collisions = collisions
	m.meter = meter
	m.seed = seed
	m.pcg.Seed(xrand.SeedsNamed(seed, "radio"))
	clear(m.edgePower)
	if m.linkCh != nil && m.edgePower == nil {
		m.edgePower = make([]float64, 2*m.g.EdgeCount())
	}
	for i := range m.disabled {
		m.disabled[i] = false
		m.rxEnd[i] = 0
		m.rxLatest[i] = nil
		m.rxSum[i] = 0
		m.rxBest[i] = 0
	}
	clear(m.downLinks)
	m.observers = m.observers[:0]
	m.stats = Stats{}
}

// SetReceiver registers r as the consumer of every reception the medium
// delivers, replacing any earlier one; nil delivers none.
func (m *Medium) SetReceiver(r Receiver) {
	m.recv = r
}

// DisableNode fails node n: it no longer transmits or receives. Used for
// failure-injection experiments.
func (m *Medium) DisableNode(n topo.NodeID) { m.disabled[n] = true }

// EnableNode undoes DisableNode: node n transmits and receives again.
// Frames that were on the air while it was down stay lost — only
// transmissions whose reception window ends after the node is back count.
func (m *Medium) EnableNode(n topo.NodeID) { m.disabled[n] = false }

// linkKey packs an undirected link into a map key, ordering the endpoints
// so (a,b) and (b,a) address the same link.
func linkKey(a, b topo.NodeID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// linkDown reports whether the undirected link a–b has been failed. The
// length guard keeps the common no-link-fault path free of map lookups.
//
//slp:hotpath
func (m *Medium) linkDown(a, b topo.NodeID) bool {
	return len(m.downLinks) != 0 && m.downLinks[linkKey(a, b)]
}

// DisableLink fails the undirected link a–b: frames no longer cross it in
// either direction, while both endpoints keep exchanging frames with their
// other neighbours. Used for persistent link-fault injection.
func (m *Medium) DisableLink(a, b topo.NodeID) {
	if m.downLinks == nil {
		m.downLinks = make(map[uint64]bool)
	}
	m.downLinks[linkKey(a, b)] = true
}

// LinkDisabled reports whether the undirected link a–b has been failed.
func (m *Medium) LinkDisabled(a, b topo.NodeID) bool { return m.linkDown(a, b) }

// AddObserver registers an eavesdropper for every later transmission end,
// until Reset.
func (m *Medium) AddObserver(o Observer) {
	m.observers = append(m.observers, o)
}

// Airtime returns the on-air duration of a payload of the given size.
//
//slp:hotpath
func (m *Medium) Airtime(bytes int) time.Duration {
	return DefaultFrameOverhead + time.Duration(bytes*8)*time.Second/DefaultBitrate
}

// Stats returns a copy of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// Broadcast transmits payload from node `from` to every node within radio
// range. Delivery happens at now + airtime + propagation, as one frame
// event that runs every reception and then the eavesdropper scan. The
// payload slice is copied; callers may reuse their buffer. Steady state,
// the whole fan-out allocates nothing: frames, their reception slices and
// payload buffers are recycled through the medium's frame pool.
//
//slp:hotpath
func (m *Medium) Broadcast(from topo.NodeID, payload []byte) {
	if !m.g.Valid(from) {
		//lint:ignore hotpath cold panic path, only reached on caller bugs
		panic(fmt.Sprintf("radio: broadcast from invalid node %d", from))
	}
	if m.disabled[from] {
		return
	}
	if m.meter != nil {
		m.meter.ChargeTx(from, len(payload))
		if m.disabled[from] {
			// The battery died keying up this very frame: the carrier
			// never formed, so nothing is transmitted or observed.
			return
		}
	}
	m.stats.Broadcasts++
	m.stats.BytesSent += uint64(len(payload))

	now := m.sim.Now()
	delay := m.Airtime(len(payload)) + DefaultPropagationDelay
	endAt := now + delay
	nbrs := m.g.Neighbors(from)
	dists := m.g.NeighborDistances(from)[:len(nbrs)] // one bounds check for the loop
	base := m.g.FirstEdge(from)
	f := m.getFrame(from, payload, len(nbrs))

	// Collect receptions at in-range nodes, applying loss and collisions.
	// Each link's length comes with the graph's edge, in neighbour order.
	for j, to := range nbrs {
		if m.disabled[to] || m.linkDown(from, to) {
			continue
		}
		var power float64
		if m.linkCh != nil {
			power = m.edgeVerdict(base+j, from, to, dists[j])
		} else if m.frameCh.Lost(dists[j], m.rng) {
			power = lostEdge
		}
		if power == lostEdge {
			m.stats.LossDrops++
			continue
		}
		f.rx = append(f.rx, reception{to: to, edge: uint16(j), power: power})
		r := &f.rx[len(f.rx)-1]
		if m.sinr {
			m.contend(r, now, endAt)
		} else if m.collisions {
			if m.rxEnd[to] > now {
				// Overlaps the reception window still open at `to`. Every
				// reception in the air here is pairwise-overlapping with
				// the new one; all but the latest-ending were corrupted on
				// arrival, so corrupting that one plus the newcomer keeps
				// the invariant "a clean in-flight reception is the sole
				// in-flight reception".
				r.corrupted = true
				if cur := m.rxLatest[to]; cur != nil {
					cur.corrupted = true
				}
				if endAt > m.rxEnd[to] {
					m.rxEnd[to] = endAt
					m.rxLatest[to] = r
				}
			} else {
				m.rxEnd[to] = endAt
				m.rxLatest[to] = r
			}
		}
	}

	// Scheduled unconditionally, even with no receptions: the scan at the
	// end of transmission evaluates both the observer set and observer
	// positions (see Observer), so an observer registered while the frame
	// is on the air must hear it, as the convention promises.
	m.sim.ScheduleRunnerAfter(delay, f)
}

// edgeVerdict returns the link channel's verdict on directed edge e,
// from→to at dist metres, for this run: the received power in mW, or
// lostEdge. The channel is asked on the edge's first candidate reception
// after Reset, and every later one reads edgePower. A link channel never
// sees the shared stream, so asking once per edge leaves its draw
// sequence as it was.
//
//slp:hotpath
func (m *Medium) edgeVerdict(e int, from, to topo.NodeID, dist float64) float64 {
	v := m.edgePower[e]
	if v == 0 {
		v = lostEdge
		if mw, ok := m.linkCh.RxPowerMW(dist, m.linkFade(from, to)); ok {
			v = mw
		}
		m.edgePower[e] = v
	}
	return v
}

// fadeLabel derives each link's fade stream from the run seed; the link
// key is mixed in alongside it.
const fadeLabel = 0x73686477 // "shdw"

// linkFade returns the undirected link a–b's fade for the run: one
// standard normal from the (run seed, link) stream. It is symmetric and
// independent of the order in which links are first used, because the
// scratch generator is reseeded before each draw.
//
//slp:hotpath
func (m *Medium) linkFade(a, b topo.NodeID) float64 {
	m.fadePCG.Seed(xrand.Seeds(m.seed, linkKey(a, b), fadeLabel))
	return m.fadeRng.NormFloat64()
}

// getFrame draws a frame from the pool for a broadcast by a sender of the
// given degree. The reception slice gets capacity for every neighbour up
// front, so appends never move it and rxLatest pointers into it stay
// valid while the frame is in the air.
//
//slp:hotpath
func (m *Medium) getFrame(from topo.NodeID, payload []byte, degree int) *frame {
	var f *frame
	if n := len(m.freeFrames); n > 0 {
		f = m.freeFrames[n-1]
		m.freeFrames[n-1] = nil
		m.freeFrames = m.freeFrames[:n-1]
	} else {
		f = &frame{m: m}
	}
	f.from = from
	f.buf = append(f.buf[:0], payload...)
	if cap(f.rx) < degree {
		f.rx = make([]reception, 0, degree)
	}
	f.rx = f.rx[:0]
	return f
}
