// Package schedule represents TDMA slot assignments and implements the
// formal schedule properties of Section IV-A of the paper:
//
//   - Definition 1 (non-colliding slot): no node in the 2-hop
//     neighbourhood CG(n) shares n's slot.
//   - Definition 2 (strong DAS): every neighbour on a shortest path
//     towards the sink transmits in a later slot (or is the sink).
//   - Definition 3 (weak DAS): data can always flow to the sink along
//     strictly later slots — implemented as reachability in the directed
//     graph with an edge n→m whenever m ∈ N(n) and (slot(m) > slot(n) or
//     m = sink).
//
// A schedule is a sequence of sender sets ⟨σ1, …, σl⟩; Assignment keeps
// the equivalent per-node form, one slot per node.
package schedule

import (
	"fmt"

	"slpdas/internal/topo"
)

// Unassigned is the ⊥ slot value.
const Unassigned = -1

// Assignment maps each node to a TDMA slot. The sink conventionally holds
// slot Δ (= the slot-space size), which is outside the transmittable range
// and therefore never fires.
type Assignment struct {
	slots []int
	sink  topo.NodeID
}

// New creates an all-unassigned schedule for n nodes with the given sink.
func New(n int, sink topo.NodeID) *Assignment {
	slots := make([]int, n)
	for i := range slots {
		slots[i] = Unassigned
	}
	return &Assignment{slots: slots, sink: sink}
}

// Len returns the number of nodes covered by the assignment.
func (a *Assignment) Len() int { return len(a.slots) }

// Sink returns the sink node.
func (a *Assignment) Sink() topo.NodeID { return a.sink }

// Set assigns slot to node n.
func (a *Assignment) Set(n topo.NodeID, slot int) { a.slots[n] = slot }

// Slot returns node n's slot (Unassigned if none).
func (a *Assignment) Slot(n topo.NodeID) int { return a.slots[n] }

// Assigned reports whether node n holds a slot.
func (a *Assignment) Assigned(n topo.NodeID) bool { return a.slots[n] != Unassigned }

// Equal reports whether two assignments are identical.
func (a *Assignment) Equal(b *Assignment) bool {
	if a.sink != b.sink || len(a.slots) != len(b.slots) {
		return false
	}
	for i := range a.slots {
		if a.slots[i] != b.slots[i] {
			return false
		}
	}
	return true
}

// ViolationKind classifies schedule property violations.
type ViolationKind int

// Violation kinds.
const (
	// KindUnassigned: a non-sink node has no slot (Def. 2/3 condition 2).
	KindUnassigned ViolationKind = iota + 1
	// KindCollision: a 2-hop neighbour shares the node's slot (Def. 1).
	KindCollision
	// KindEarlierShortestParent: a shortest-path next hop towards the sink
	// transmits no later than the node (Def. 2 condition 3).
	KindEarlierShortestParent
	// KindNoRouteToSink: no strictly-later-slot path reaches the sink
	// (Def. 3 condition 3).
	KindNoRouteToSink
	// KindSlotOutOfRange: slot outside [0, slots) for a transmitter.
	KindSlotOutOfRange
)

// String names the violation kind.
func (k ViolationKind) String() string {
	switch k {
	case KindUnassigned:
		return "unassigned"
	case KindCollision:
		return "collision"
	case KindEarlierShortestParent:
		return "earlier-shortest-parent"
	case KindNoRouteToSink:
		return "no-route-to-sink"
	case KindSlotOutOfRange:
		return "slot-out-of-range"
	default:
		return fmt.Sprintf("violation(%d)", int(k))
	}
}

// Violation describes one property violation.
type Violation struct {
	Kind  ViolationKind
	Node  topo.NodeID
	Other topo.NodeID // peer node where relevant, else topo.None
	Slot  int
}

// String renders the violation for reports.
func (v Violation) String() string {
	if v.Other != topo.None {
		return fmt.Sprintf("%s: node %d (slot %d) vs node %d", v.Kind, v.Node, v.Slot, v.Other)
	}
	return fmt.Sprintf("%s: node %d (slot %d)", v.Kind, v.Node, v.Slot)
}

// CheckAssigned verifies Def. 2/3 conditions 1–2: every non-sink node holds
// exactly one slot. (Uniqueness per node holds by construction of the map;
// this reports missing assignments.)
func CheckAssigned(g *topo.Graph, a *Assignment) []Violation {
	var out []Violation
	for n := topo.NodeID(0); int(n) < g.Len(); n++ {
		if n == a.sink {
			continue
		}
		if !a.Assigned(n) {
			out = append(out, Violation{Kind: KindUnassigned, Node: n, Other: topo.None, Slot: Unassigned})
		}
	}
	return out
}

// CheckNonColliding verifies Definition 1 for every node: no member of the
// 2-hop neighbourhood shares its slot. Each colliding pair is reported
// once (from its lower-ID endpoint).
func CheckNonColliding(g *topo.Graph, a *Assignment) []Violation {
	var out []Violation
	for n := topo.NodeID(0); int(n) < g.Len(); n++ {
		if n == a.sink || !a.Assigned(n) {
			continue
		}
		for _, m := range g.TwoHop(n) {
			if m == a.sink || m <= n || !a.Assigned(m) {
				continue
			}
			if a.Slot(m) == a.Slot(n) {
				out = append(out, Violation{Kind: KindCollision, Node: n, Other: m, Slot: a.Slot(n)})
			}
		}
	}
	return out
}

// CheckSlotRange verifies every non-sink slot is transmittable.
func CheckSlotRange(g *topo.Graph, a *Assignment, slots int) []Violation {
	var out []Violation
	for n := topo.NodeID(0); int(n) < g.Len(); n++ {
		if n == a.sink || !a.Assigned(n) {
			continue
		}
		if s := a.Slot(n); s < 0 || s >= slots {
			out = append(out, Violation{Kind: KindSlotOutOfRange, Node: n, Other: topo.None, Slot: s})
		}
	}
	return out
}

// Count returns the lengths of the lists CheckWeakDAS, CheckStrongDAS,
// CheckNonColliding and CheckSlotRange(slots) return, walking each
// property once. dist is the graph's hop distances from the sink, as
// g.BFSFrom(a.Sink()) returns them.
func Count(g *topo.Graph, a *Assignment, dist []int, slots int) (weak, strong, collision, outOfRange int) {
	unassigned := len(CheckAssigned(g, a))
	collision = len(CheckNonColliding(g, a))
	weak = unassigned + len(noRoute(g, a)) + collision
	strong = unassigned + len(earlierParent(g, a, dist)) + collision
	return weak, strong, collision, len(CheckSlotRange(g, a, slots))
}

// CheckStrongDAS verifies Definition 2: conditions 1–2 via CheckAssigned,
// condition 3 (every shortest-path next hop towards the sink transmits
// later or is the sink), and condition 4 via CheckNonColliding.
func CheckStrongDAS(g *topo.Graph, a *Assignment) []Violation {
	out := append(CheckAssigned(g, a), earlierParent(g, a, g.BFSFrom(a.sink))...)
	return append(out, CheckNonColliding(g, a)...)
}

// CheckWeakDAS verifies Definition 3: conditions 1–2 via CheckAssigned,
// condition 3 as sink reachability through strictly-later slots, and
// condition 4 via CheckNonColliding.
func CheckWeakDAS(g *topo.Graph, a *Assignment) []Violation {
	out := append(CheckAssigned(g, a), noRoute(g, a)...)
	return append(out, CheckNonColliding(g, a)...)
}

// earlierParent reports Definition 2's condition 3: a shortest-path next
// hop m of an assigned node n (a neighbour with dist[m] == dist[n]-1, dist
// counted from the sink) that is not the sink and does not transmit later.
func earlierParent(g *topo.Graph, a *Assignment, dist []int) []Violation {
	var out []Violation
	for n := topo.NodeID(0); int(n) < g.Len(); n++ {
		if n == a.sink || !a.Assigned(n) {
			continue
		}
		for _, m := range g.Neighbors(n) {
			if dist[m] == dist[n]-1 && m != a.sink && (!a.Assigned(m) || a.Slot(m) <= a.Slot(n)) {
				out = append(out, Violation{Kind: KindEarlierShortestParent, Node: n, Other: m, Slot: a.Slot(n)})
			}
		}
	}
	return out
}

// noRoute reports Definition 3's condition 3, in node order: the assigned
// nodes with no path of strictly later slots to the sink. It searches
// backwards from the sink, stepping from a reached m to an assigned
// neighbour n when m is the sink or transmits after n.
func noRoute(g *topo.Graph, a *Assignment) []Violation {
	reached := make([]bool, g.Len())
	reached[a.sink] = true
	stack := append(make([]topo.NodeID, 0, g.Len()), a.sink) // each node is pushed at most once
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range g.Neighbors(m) {
			if !reached[n] && a.Assigned(n) && (m == a.sink || a.Slot(m) > a.Slot(n)) {
				reached[n] = true
				stack = append(stack, n)
			}
		}
	}
	var out []Violation
	for n := topo.NodeID(0); int(n) < g.Len(); n++ {
		if !reached[n] && a.Assigned(n) {
			out = append(out, Violation{Kind: KindNoRouteToSink, Node: n, Other: topo.None, Slot: a.Slot(n)})
		}
	}
	return out
}

// IsWeakDAS reports whether the assignment satisfies Definition 3.
func IsWeakDAS(g *topo.Graph, a *Assignment) bool {
	return len(CheckWeakDAS(g, a)) == 0
}

// NonColliding reports whether slot i would be non-colliding for node n
// (Definition 1): no node in CG(n) currently holds slot i.
func NonColliding(g *topo.Graph, a *Assignment, n topo.NodeID, slot int) bool {
	for _, m := range g.TwoHop(n) {
		if a.Assigned(m) && a.Slot(m) == slot {
			return false
		}
	}
	return true
}
