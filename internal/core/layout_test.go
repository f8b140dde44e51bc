package core

import (
	"reflect"
	"testing"
	"unsafe"

	"slpdas/internal/topo"
)

// cacheLine is the line size the node layout is built for.
const cacheLine = 64

// deliveryBytes bounds the leading bytes of a node that hold every field
// a DATA delivery reads: two cache lines.
const deliveryBytes = 2 * cacheLine

// TestNodeLayoutKeepsDeliveryFieldsTogether pins the node layout the data
// phase's receive path relies on. A DATA delivery reads the receive
// action's fields (id, net, the pending* aggregation state), the guards
// of the action loop (slot, startNode, the resolve guard's cached
// loser/dirty, the timer expiry bits) and the process's dead, failed and
// ctx fields; all of them must lie within the node's first deliveryBytes.
// Each node must also start on a cache line, or those bytes straddle one
// line more: a network's nodes are one slab that starts on a page, so
// node must be a whole number of lines, and even a small network's slab
// must start on a line. A field added to node that breaks either rule
// fails here rather than silently costing the data phase a cache miss per
// delivery.
func TestNodeLayoutKeepsDeliveryFieldsTogether(t *testing.T) {
	var n node
	type field struct {
		name      string
		off, size uintptr
	}
	fields := []field{
		{"id", unsafe.Offsetof(n.id), unsafe.Sizeof(n.id)},
		{"slot", unsafe.Offsetof(n.slot), unsafe.Sizeof(n.slot)},
		{"net", unsafe.Offsetof(n.net), unsafe.Sizeof(n.net)},
		{"pendingOrigin", unsafe.Offsetof(n.pendingOrigin), unsafe.Sizeof(n.pendingOrigin)},
		{"pendingSeq", unsafe.Offsetof(n.pendingSeq), unsafe.Sizeof(n.pendingSeq)},
		{"pendingCount", unsafe.Offsetof(n.pendingCount), unsafe.Sizeof(n.pendingCount)},
		{"startNode", unsafe.Offsetof(n.startNode), unsafe.Sizeof(n.startNode)},
		{"dirty", unsafe.Offsetof(n.dirty), unsafe.Sizeof(n.dirty)},
		{"loser", unsafe.Offsetof(n.loser), unsafe.Sizeof(n.loser)},
	}
	// The process's fields are gcn's own; reflection reads their offsets.
	prc := reflect.TypeOf(n.prc)
	for _, name := range []string{"dead", "failed", "expired", "ctx", "engine"} {
		f, ok := prc.FieldByName(name)
		if !ok {
			t.Fatalf("gcn.Process has no field %s", name)
		}
		fields = append(fields, field{"prc." + name, unsafe.Offsetof(n.prc) + f.Offset, f.Type.Size()})
	}
	for _, f := range fields {
		if end := f.off + f.size; end > deliveryBytes {
			t.Errorf("node.%s ends at byte %d, past the %d bytes a DATA delivery may touch", f.name, end, deliveryBytes)
		}
	}

	if size := unsafe.Sizeof(n); size%cacheLine != 0 {
		t.Errorf("node is %d bytes; want a multiple of %d (adjust nodePad, now %d)", size, cacheLine, nodePad)
	}

	// A 5×5 grid's 25 nodes take the slab's floor of minSlabNodes; an
	// 11×11 grid's 121 fill a slab of their own size.
	for _, side := range []int{5, 11} {
		net, err := NewNetwork(grid(t, side), topo.GridCentre(side), topo.GridTopLeft(), Default(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for id := range net.nodes {
			nd := &net.nodes[id]
			if addr := uintptr(unsafe.Pointer(nd)); addr%cacheLine != 0 {
				t.Fatalf("%d×%d: node %d starts at %#x, %d bytes into a cache line", side, side, nd.id, addr, addr%cacheLine)
			}
		}
	}
}
