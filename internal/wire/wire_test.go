package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"slpdas/internal/topo"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	data := AppendFrame(nil, m)
	got, err := new(Decoder).Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal(%v): %v", m, err)
	}
	return got
}

func TestHelloRoundTrip(t *testing.T) {
	in := &Hello{From: 42}
	out := roundTrip(t, in)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestDissemRoundTrip(t *testing.T) {
	in := &Dissem{
		From:   7,
		Normal: true,
		Parent: topo.None,
		Infos: []NodeInfo{
			{Node: 7, Hop: 2, Slot: 55, Version: 3},
			{Node: 8, Hop: NoSlot, Slot: NoSlot, Version: 0},
			{Node: 120, Hop: 19, Slot: 1, Version: 91},
		},
	}
	out := roundTrip(t, in)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestDissemEmptyInfos(t *testing.T) {
	in := &Dissem{From: 1, Normal: false, Parent: 0, Infos: []NodeInfo{}}
	out := roundTrip(t, in).(*Dissem)
	if len(out.Infos) != 0 {
		t.Errorf("Infos = %v, want empty", out.Infos)
	}
	if out.Normal {
		t.Error("Normal = true, want false")
	}
}

func TestSearchChangeDataRoundTrip(t *testing.T) {
	msgs := []Message{
		&Search{From: 60, ANode: 49, Dist: 3, TTL: 20},
		&Search{From: 0, ANode: topo.None, Dist: 0, TTL: 0},
		&Change{From: 13, ANode: 14, NSlot: -5, Dist: 7},
		&Data{From: 3, Origin: 0, Seq: 4000000000, Count: 65535},
	}
	for _, in := range msgs {
		out := roundTrip(t, in)
		if !reflect.DeepEqual(in, out) {
			t.Errorf("round trip: got %+v, want %+v", out, in)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := new(Decoder).Unmarshal(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty frame: err = %v, want ErrTruncated", err)
	}
	if _, err := new(Decoder).Unmarshal([]byte{0xEE, 1, 2}); !errors.Is(err, ErrUnknownType) {
		t.Errorf("unknown type: err = %v, want ErrUnknownType", err)
	}
	// Truncate every valid frame at every length and require a clean error.
	frames := [][]byte{
		AppendFrame(nil, &Hello{From: 300}),
		AppendFrame(nil, &Dissem{From: 1, Normal: true, Parent: 2, Infos: []NodeInfo{{Node: 3, Hop: 4, Slot: 5, Version: 6}}}),
		AppendFrame(nil, &Search{From: 1, ANode: 2, Dist: 3, TTL: 4}),
		AppendFrame(nil, &Change{From: 1, ANode: 2, NSlot: 3, Dist: 4}),
		AppendFrame(nil, &Data{From: 1, Origin: 2, Seq: 3, Count: 4}),
	}
	for _, frame := range frames {
		for cut := 1; cut < len(frame); cut++ {
			if _, err := new(Decoder).Unmarshal(frame[:cut]); err == nil {
				t.Errorf("truncated frame %v at %d decoded without error", frame, cut)
			}
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	frame := AppendFrame(nil, &Hello{From: 1})
	frame = append(frame, 0x00)
	if _, err := new(Decoder).Unmarshal(frame); !errors.Is(err, ErrTrailingBytes) {
		t.Errorf("trailing bytes: err = %v, want ErrTrailingBytes", err)
	}
}

func TestCorruptInfoCountRejected(t *testing.T) {
	// Hand-craft a DISSEM with an absurd info count.
	buf := []byte{byte(TypeDissem)}
	buf = appendInt(buf, 1)     // from
	buf = appendBool(buf, true) // normal
	buf = appendInt(buf, 2)     // parent
	head := buf
	buf = appendUint(buf, 1<<40) // count, far past what the frame holds
	if _, err := new(Decoder).Unmarshal(buf); !errors.Is(err, ErrTruncated) {
		t.Errorf("absurd info count: err = %v, want ErrTruncated", err)
	}
	// A count the bytes could hold at four per entry, whose second entry
	// runs short, stops there instead of appending a third, empty one.
	buf = appendUint(head, 3)
	buf = append(buf, 1, 1, 1, 1)                                     // one whole entry
	buf = append(buf, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80) // an unterminated varint
	var dec Decoder
	if _, err := dec.Unmarshal(buf); !errors.Is(err, ErrTruncated) {
		t.Errorf("short entry: err = %v, want ErrTruncated", err)
	}
	if n := len(dec.dissem.Infos); n > 2 {
		t.Errorf("short entry: decoded %d entries, want at most 2", n)
	}
}

// TestOversizedInfoCountAllocatesNothing: a 7-byte DISSEM whose info
// count is 65,536 cannot hold its entries. A warm Decoder refuses it with
// ErrTruncated before growing its Infos scratch, and allocates nothing.
func TestOversizedInfoCountAllocatesNothing(t *testing.T) {
	var dec Decoder
	if _, err := dec.Unmarshal(AppendFrame(nil, &Dissem{From: 1, Parent: 2, Infos: make([]NodeInfo, 10)})); err != nil {
		t.Fatal(err)
	}
	warm := cap(dec.dissem.Infos)
	buf := []byte{byte(TypeDissem)}
	buf = appendInt(buf, 1)     // from
	buf = appendBool(buf, true) // normal
	buf = appendInt(buf, 2)     // parent
	buf = appendUint(buf, 1<<16)
	if len(buf) != 7 {
		t.Fatalf("corrupt frame is %d bytes, want 7", len(buf))
	}
	var err error
	allocs := testing.AllocsPerRun(10, func() { _, err = dec.Unmarshal(buf) })
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
	if got := cap(dec.dissem.Infos); got != warm {
		t.Errorf("Infos capacity %d after the corrupt frame, want %d as before", got, warm)
	}
	if allocs != 0 {
		t.Errorf("refusing the corrupt frame allocates %.1f/op, want 0", allocs)
	}
}

// TestUnmarshalAllocFree: a warm Decoder decodes a frame of every type,
// a DISSEM with 10 entries among them, without allocating. The reader
// each frame is decoded through must stay on the stack.
func TestUnmarshalAllocFree(t *testing.T) {
	infos := make([]NodeInfo, 10)
	for i := range infos {
		infos[i] = NodeInfo{Node: topo.NodeID(i), Hop: int32(i), Slot: int32(2 * i), Version: uint32(i + 1)}
	}
	var frames [][]byte
	for _, m := range []Message{
		&Hello{From: 3},
		&Dissem{From: 0, Normal: true, Parent: 4, Infos: infos},
		&Search{From: 5, ANode: 6, Dist: 3, TTL: 20},
		&Change{From: 7, ANode: 8, NSlot: 12, Dist: 1},
		&Data{From: 2, Origin: 0, Seq: 99, Count: 3},
	} {
		frames = append(frames, AppendFrame(nil, m))
	}
	var dec Decoder
	decodeAll := func() {
		for _, f := range frames {
			if _, err := dec.Unmarshal(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeAll() // warm: the DISSEM scratch grows its Infos once
	if allocs := testing.AllocsPerRun(100, decodeAll); allocs != 0 {
		t.Errorf("decoding one frame of each type allocates %.1f times, want 0", allocs)
	}
}

// TestSizeMatchesMarshal: the frame a hot sender appends into its reused
// scratch buffer has a fresh frame's size and bytes, whatever the buffer
// held.
func TestSizeMatchesMarshal(t *testing.T) {
	scratch := AppendFrame(nil, &Dissem{From: 9, Infos: make([]NodeInfo, 10)})
	for _, m := range []Message{&Hello{From: 3}, &Dissem{From: 9, Infos: make([]NodeInfo, 10)}} {
		scratch = AppendFrame(scratch[:0], m)
		if want := AppendFrame(nil, m); !bytes.Equal(scratch, want) {
			t.Errorf("%T: AppendFrame wrote %d bytes %x, a fresh frame %d bytes %x", m, len(scratch), scratch, len(want), want)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	cases := map[Type]string{
		TypeHello:  "HELLO",
		TypeDissem: "DISSEM",
		TypeSearch: "SEARCH",
		TypeChange: "CHANGE",
		TypeData:   "DATA",
		Type(200):  "TYPE(200)",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

// quick generators for property-based round-trip checks.

func randomNodeInfo(r *rand.Rand) NodeInfo {
	return NodeInfo{
		Node:    topo.NodeID(r.Int31n(1000) - 1),
		Hop:     r.Int31n(64) - 1,
		Slot:    r.Int31n(200) - 1,
		Version: r.Uint32(),
	}
}

func TestQuickDissemRoundTrip(t *testing.T) {
	f := func(from int32, normal bool, parent int32, nInfos uint8, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := &Dissem{
			From:   topo.NodeID(from),
			Normal: normal,
			Parent: topo.NodeID(parent),
			Infos:  make([]NodeInfo, 0, nInfos%32),
		}
		for i := 0; i < int(nInfos%32); i++ {
			in.Infos = append(in.Infos, randomNodeInfo(r))
		}
		out, err := new(Decoder).Unmarshal(AppendFrame(nil, in))
		if err != nil {
			return false
		}
		got := out.(*Dissem)
		if len(in.Infos) == 0 {
			// reflect.DeepEqual distinguishes nil and empty slices.
			return got.From == in.From && got.Normal == in.Normal &&
				got.Parent == in.Parent && len(got.Infos) == 0
		}
		return reflect.DeepEqual(in, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickScalarMessagesRoundTrip(t *testing.T) {
	f := func(a, b, c, d int32, seq uint32, count uint16) bool {
		msgs := []Message{
			&Hello{From: topo.NodeID(a)},
			&Search{From: topo.NodeID(a), ANode: topo.NodeID(b), Dist: c, TTL: d},
			&Change{From: topo.NodeID(a), ANode: topo.NodeID(b), NSlot: c, Dist: d},
			&Data{From: topo.NodeID(a), Origin: topo.NodeID(b), Seq: seq, Count: count},
		}
		for _, in := range msgs {
			out, err := new(Decoder).Unmarshal(AppendFrame(nil, in))
			if err != nil || !reflect.DeepEqual(in, out) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = new(Decoder).Unmarshal(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
