// Package wire defines the over-the-air message formats exchanged by the
// DAS protocols and a compact binary codec for them. Frames carry their
// real encoded size so the radio can compute airtime and the experiment
// harness can report message overhead in both packets and bytes — the
// "negligible message overhead" claim of the paper is measured, not
// asserted.
//
// Frame layout: one type byte followed by the message fields, integers as
// (zig-zag) varints, slices length-prefixed. The codec never panics on
// malformed input; it returns ErrTruncated or ErrUnknownType.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"slpdas/internal/topo"
)

// Codec errors.
var (
	// ErrTruncated is returned when a frame ends mid-field.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrUnknownType is returned for an unregistered frame type byte.
	ErrUnknownType = errors.New("wire: unknown frame type")
	// ErrTrailingBytes is returned when a frame decodes but leaves data.
	ErrTrailingBytes = errors.New("wire: trailing bytes after frame")
)

// Type identifies a message kind on the wire.
type Type uint8

// Message kinds. Values are part of the wire format; do not reorder.
const (
	TypeHello  Type = iota + 1 // neighbour discovery beacon
	TypeDissem                 // Phase 1 state dissemination (Figure 2)
	TypeSearch                 // Phase 2 node locator (Figure 3)
	TypeChange                 // Phase 3 slot refinement (Figure 4)
	TypeData                   // data-phase payload broadcast
)

// String returns the protocol name of the message type.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "HELLO"
	case TypeDissem:
		return "DISSEM"
	case TypeSearch:
		return "SEARCH"
	case TypeChange:
		return "CHANGE"
	case TypeData:
		return "DATA"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// Message is any frame that can cross the radio.
type Message interface {
	// Kind returns the wire type tag.
	Kind() Type
	// appendBody encodes the fields (without the type byte) onto buf.
	appendBody(buf []byte) []byte
}

// NoSlot is the ⊥ slot/hop marker used inside messages.
const NoSlot int32 = -1

// NodeInfo is one entry of the 2-hop neighbourhood table carried in DISSEM
// messages: the (hop, slot) pair of Figure 2's Ninfo, plus a freshness
// version so receivers can discard stale relayed state (the pseudocode
// overwrites unconditionally, which thrashes under loss; versioning is the
// standard repair and preserves the semantics).
type NodeInfo struct {
	Node    topo.NodeID
	Hop     int32 // NoSlot (⊥) when unknown
	Slot    int32 // NoSlot (⊥) when unknown
	Version uint32
}

// Hello is the neighbour-discovery beacon.
type Hello struct {
	From topo.NodeID
}

// Kind implements Message.
func (*Hello) Kind() Type { return TypeHello }

// Dissem is the Phase 1 state dissemination message
// ⟨DISSEM, Normal, i, {Ninfo[j]}, par⟩ of Figure 2.
type Dissem struct {
	From   topo.NodeID
	Normal bool        // false marks an update-phase dissemination
	Parent topo.NodeID // topo.None when unassigned (⊥)
	Infos  []NodeInfo  // sender's view: itself plus its 1-hop neighbours
}

// Kind implements Message.
func (*Dissem) Kind() Type { return TypeDissem }

// Search is the Phase 2 node-locator message ⟨SEARCH, i, aNode, dist⟩ of
// Figure 3, extended with a TTL that bounds the d=0 wander (the pseudocode
// forwards indefinitely until a node with an alternative parent is found,
// which can circulate on unlucky topologies).
type Search struct {
	From  topo.NodeID
	ANode topo.NodeID // addressed walker target
	Dist  int32       // remaining hops of the search walk
	TTL   int32       // remaining total forwards before the search dies
}

// Kind implements Message.
func (*Search) Kind() Type { return TypeSearch }

// Change is the Phase 3 slot-refinement message ⟨CHANGE, i, aNode, nSlot,
// dist⟩ of Figure 4.
type Change struct {
	From  topo.NodeID
	ANode topo.NodeID
	NSlot int32 // minimum slot seen in the sender's closed neighbourhood
	Dist  int32 // remaining hops of the change walk
}

// Kind implements Message.
func (*Change) Kind() Type { return TypeChange }

// Data is the data-phase broadcast: both protocols flood, so every node
// broadcasts one Data frame per TDMA period in its slot (§VI-A).
type Data struct {
	From   topo.NodeID
	Origin topo.NodeID // node whose detection this aggregate includes
	Seq    uint32      // source sequence number
	Count  uint16      // number of reports aggregated into this frame
}

// Kind implements Message.
func (*Data) Kind() Type { return TypeData }

// Interface compliance.
var (
	_ Message = (*Hello)(nil)
	_ Message = (*Dissem)(nil)
	_ Message = (*Search)(nil)
	_ Message = (*Change)(nil)
	_ Message = (*Data)(nil)
)

// AppendFrame encodes m onto buf and returns the extended slice. Hot
// senders keep one scratch buffer and call AppendFrame(buf[:0], m) so
// steady-state framing allocates nothing (the radio copies payloads, so
// the buffer is free for reuse as soon as Broadcast returns).
//
//slp:hotpath
func AppendFrame(buf []byte, m Message) []byte {
	buf = append(buf, byte(m.Kind()))
	return m.appendBody(buf)
}

// Decoder decodes frames into per-type scratch messages it owns, so a hot
// receive path (one decode per radio frame) allocates nothing in steady
// state. The returned Message is valid only until the next Unmarshal call
// on the same Decoder; receivers that retain messages must decode with a
// Decoder of their own. The simulator's receive path decodes
// each radio frame once and hands the same Message to every receiver of
// that frame, so receivers must treat it as read-only. The zero Decoder is
// ready to use.
type Decoder struct {
	hello  Hello
	dissem Dissem
	search Search
	change Change
	data   Data
}

// Unmarshal decodes a frame into the decoder's scratch message for its
// type. The entire input must be consumed.
func (d *Decoder) Unmarshal(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	r := reader{data: data[1:]}
	var m Message
	switch Type(data[0]) {
	case TypeHello:
		d.hello.decodeBody(&r)
		m = &d.hello
	case TypeDissem:
		d.dissem.decodeBody(&r)
		m = &d.dissem
	case TypeSearch:
		d.search.decodeBody(&r)
		m = &d.search
	case TypeChange:
		d.change.decodeBody(&r)
		m = &d.change
	case TypeData:
		d.data.decodeBody(&r)
		m = &d.data
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, data[0])
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.data) != 0 {
		return nil, fmt.Errorf("%w: %d bytes", ErrTrailingBytes, len(r.data))
	}
	return m, nil
}

// --- field encoding helpers ---

func appendInt(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

func appendUint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// reader reads a frame's fields in order. Its error is sticky: the first
// short field sets ErrTruncated, and every later read returns 0 and
// consumes nothing, so a decodeBody is a straight list of reads with one
// error check, in Unmarshal. Unmarshal calls each decodeBody on its
// concrete type: a *reader passed through a Message interface method
// would move the reader to the heap on every frame.
type reader struct {
	data []byte
	err  error
}

// int reads a zig-zag varint, the encoding binary.AppendVarint writes.
func (r *reader) int() int64 {
	u := r.uint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) uint() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *reader) bool() bool {
	if len(r.data) == 0 {
		r.fail(ErrTruncated)
		return false
	}
	v := r.data[0] != 0
	r.data = r.data[1:]
	return v
}

// fail records err unless an earlier read already failed, and empties
// the data so every later read fails too.
func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.data = nil
}

// --- per-message codecs ---

func (h *Hello) appendBody(buf []byte) []byte {
	return appendInt(buf, int64(h.From))
}

func (h *Hello) decodeBody(r *reader) {
	h.From = topo.NodeID(r.int())
}

func (d *Dissem) appendBody(buf []byte) []byte {
	buf = appendInt(buf, int64(d.From))
	buf = appendBool(buf, d.Normal)
	buf = appendInt(buf, int64(d.Parent))
	buf = appendUint(buf, uint64(len(d.Infos)))
	for _, info := range d.Infos {
		buf = appendInt(buf, int64(info.Node))
		buf = appendInt(buf, int64(info.Hop))
		buf = appendInt(buf, int64(info.Slot))
		buf = appendUint(buf, uint64(info.Version))
	}
	return buf
}

func (d *Dissem) decodeBody(r *reader) {
	d.From = topo.NodeID(r.int())
	d.Normal = r.bool()
	d.Parent = topo.NodeID(r.int())
	count := r.uint()
	// Each entry takes at least four bytes, so a count the rest of the
	// frame cannot hold is refused before the scratch grows to fit it.
	if count > uint64(len(r.data)/4) {
		r.fail(ErrTruncated)
		count = 0
	}
	// Reuse the Infos backing array when decoding into a recycled message
	// (Decoder scratch); fresh messages allocate exactly as before.
	if uint64(cap(d.Infos)) < count {
		d.Infos = make([]NodeInfo, 0, count)
	} else {
		d.Infos = d.Infos[:0]
	}
	// The loop stops at the first short field, so a count the frame
	// cannot hold appends no run of empty entries.
	for i := uint64(0); i < count && r.err == nil; i++ {
		d.Infos = append(d.Infos, NodeInfo{
			Node:    topo.NodeID(r.int()),
			Hop:     int32(r.int()),
			Slot:    int32(r.int()),
			Version: uint32(r.uint()),
		})
	}
}

func (s *Search) appendBody(buf []byte) []byte {
	buf = appendInt(buf, int64(s.From))
	buf = appendInt(buf, int64(s.ANode))
	buf = appendInt(buf, int64(s.Dist))
	buf = appendInt(buf, int64(s.TTL))
	return buf
}

func (s *Search) decodeBody(r *reader) {
	s.From = topo.NodeID(r.int())
	s.ANode = topo.NodeID(r.int())
	s.Dist = int32(r.int())
	s.TTL = int32(r.int())
}

func (c *Change) appendBody(buf []byte) []byte {
	buf = appendInt(buf, int64(c.From))
	buf = appendInt(buf, int64(c.ANode))
	buf = appendInt(buf, int64(c.NSlot))
	buf = appendInt(buf, int64(c.Dist))
	return buf
}

func (c *Change) decodeBody(r *reader) {
	c.From = topo.NodeID(r.int())
	c.ANode = topo.NodeID(r.int())
	c.NSlot = int32(r.int())
	c.Dist = int32(r.int())
}

func (d *Data) appendBody(buf []byte) []byte {
	buf = appendInt(buf, int64(d.From))
	buf = appendInt(buf, int64(d.Origin))
	buf = appendUint(buf, uint64(d.Seq))
	buf = appendUint(buf, uint64(d.Count))
	return buf
}

func (d *Data) decodeBody(r *reader) {
	d.From = topo.NodeID(r.int())
	d.Origin = topo.NodeID(r.int())
	d.Seq = uint32(r.uint())
	d.Count = uint16(r.uint())
}
