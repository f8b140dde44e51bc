package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzUnmarshal feeds arbitrary bytes to the decoder the simulator's
// receive path trusts with one decode per frame. Unmarshal must never
// panic; every frame it accepts must re-encode to a frame that decodes to
// the same message and re-encodes to the same bytes; and the accepted
// frame with one byte more must be refused as trailing bytes.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range []Message{
		&Hello{From: 3},
		&Dissem{From: 9, Normal: true, Parent: 4, Infos: []NodeInfo{{Node: 9, Hop: 2, Slot: 40, Version: 7}, {Node: 11, Hop: NoSlot, Slot: NoSlot}}},
		&Dissem{From: 1, Parent: -1},
		&Search{From: 5, ANode: 6, Dist: 3, TTL: 20},
		&Change{From: 7, ANode: 8, NSlot: 12, Dist: 1},
		&Data{From: 2, Origin: 0, Seq: 99, Count: 3},
	} {
		f.Add(AppendFrame(nil, m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{byte(TypeDissem), 2, 1, 4, 0x80, 0x80, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Decoder
		m, err := dec.Unmarshal(data)
		if err != nil {
			return
		}
		frame := AppendFrame(nil, m)
		var again Decoder
		m2, err := again.Unmarshal(frame)
		if err != nil {
			t.Fatalf("%x decodes to %+v, whose frame %x does not decode: %v", data, m, frame, err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("%x decodes to %+v, whose frame %x decodes to %+v", data, m, frame, m2)
		}
		if re := AppendFrame(nil, m2); !bytes.Equal(re, frame) {
			t.Fatalf("%+v encodes to %x, then to %x", m, frame, re)
		}
		for _, extra := range []byte{0, 0x80, data[0]} {
			long := append(append([]byte(nil), data...), extra)
			if _, err := new(Decoder).Unmarshal(long); !errors.Is(err, ErrTrailingBytes) {
				t.Fatalf("%x plus byte %#x: err = %v, want ErrTrailingBytes", data, extra, err)
			}
		}
	})
}
