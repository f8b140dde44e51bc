package energy

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseStringIdentity pins Parse∘String as the identity on canonical
// specs, matching the fault.Spec contract.
func TestParseStringIdentity(t *testing.T) {
	for _, spec := range []string{
		"none",
		"battery:8",
		"battery:50",
		"battery:12.5",
		"battery:8:0.001:0.003:0.02",
		"battery:8:0:0:0.5",
	} {
		s, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		if got := s.String(); got != spec {
			t.Errorf("Parse(%q).String() = %q; Parse∘String must be the identity", spec, got)
		}
	}
}

// TestParseDefaults: the short form fills calibrated costs, renders back
// short, and non-canonical spellings normalise.
func TestParseDefaults(t *testing.T) {
	s, err := Parse("battery:8")
	if err != nil {
		t.Fatal(err)
	}
	if s.TxCost != DefaultTxCost || s.RxCost != DefaultRxCost || s.IdleCost != DefaultIdleCost {
		t.Errorf("short form did not fill default costs: %+v", s)
	}
	// Explicitly spelling the defaults is valid and canonicalises short.
	long, err := Parse("battery:8:0.002:0.002:0.01")
	if err != nil {
		t.Fatal(err)
	}
	if long != s {
		t.Errorf("explicit defaults differ from short form: %+v vs %+v", long, s)
	}
	if got := long.String(); got != "battery:8" {
		t.Errorf("explicit defaults render %q, want the short canonical form", got)
	}
	for _, tc := range []struct{ in, want string }{
		{"", "none"},
		{"  none  ", "none"},
		{"battery:8.0", "battery:8"},
	} {
		s, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if got := s.String(); got != tc.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestParseRejectsGarbage: missing, trailing, out-of-range and non-finite
// inputs are errors.
func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"nonex",
		"battery",
		"battery:",
		"battery:0",
		"battery:0:0:0:0",
		"battery:-0:0:0:0",
		"battery:-5",
		"battery:8x",
		"battery:8:1",
		"battery:8:1:2",
		"battery:8:1:2:3:4",
		"battery:8:-1:2:3",
		"battery:NaN",
		"battery:+Inf",
		"battery:8:NaN:0:0",
		"solar:8",
	} {
		if s, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted garbage as %q", bad, s)
		}
	}
}

// TestValidate: the zero Spec is valid-and-off; hand-built specs are
// checked.
func TestValidate(t *testing.T) {
	var zero Spec
	if !zero.Empty() || zero.Validate() != nil {
		t.Error("zero Spec must be empty and valid")
	}
	if zero.String() != "none" {
		t.Errorf("zero Spec renders %q, want none", zero.String())
	}
	bad := Spec{Capacity: -1}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("negative capacity not rejected: %v", err)
	}
	bad = Spec{Capacity: 5, RxCost: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative rx cost not rejected")
	}
}

// FuzzParse: every accepted input prints a canonical form that parses back
// to an equal Spec and is a fixed point of String, and a battery input
// never parses to accounting off.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"none", "", "battery:8", "battery:12.5", "battery:8:0.001:0.003:0.02",
		"battery:8:0:0:0.5", "battery:8.0", "battery:0", "battery:0:0:0:0",
		"battery:-0:0:0:0", "battery:1e-300", "battery:NaN", "battery:8:-0:0:0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := Parse(s)
		if err != nil {
			return
		}
		if strings.HasPrefix(s, "battery:") && !(spec.Capacity > 0) {
			t.Errorf("Parse(%q) = %+v: a battery with capacity %v", s, spec, spec.Capacity)
		}
		canon := spec.String()
		back, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not parse back: %v", s, canon, err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Errorf("Parse(%q) = %+v, but its String %q reparses as %+v", s, spec, canon, back)
		}
		if again := back.String(); again != canon {
			t.Errorf("String not a fixed point: %q -> %q", canon, again)
		}
	})
}
