package protocol

import (
	"strings"
	"testing"
)

func TestByNameKnownFamilies(t *testing.T) {
	for _, name := range []string{NameProtectionless, NameSLPDAS, NamePhantom, NameFakeSource, NameTier} {
		fam, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if fam.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, fam.Name)
		}
		if fam.Summary == "" || fam.Label == "" {
			t.Errorf("%q: empty summary or label", name)
		}
		// A family that does not run the TDMA convergecast must drive its
		// own traffic, or its data phase would be silent.
		if !fam.TDMAData && fam.StartData == nil {
			t.Errorf("%q: no TDMA data phase and no StartData", name)
		}
	}
	// The paper's pair lives wholly in the slot schedule.
	for _, name := range []string{NameProtectionless, NameSLPDAS} {
		if fam, _ := ByName(name); fam.StartData != nil {
			t.Errorf("%q has a StartData", name)
		}
	}
}

func TestByNameResolvesAlias(t *testing.T) {
	fam, err := ByName(AliasSLP)
	if err != nil {
		t.Fatalf("ByName(%q): %v", AliasSLP, err)
	}
	if fam.Name != NameSLPDAS {
		t.Errorf("alias %q resolved to %q, want %q", AliasSLP, fam.Name, NameSLPDAS)
	}
}

// TestByNameAllocFree holds the table lookup paid at the campaign and CLI
// edge, where a family name becomes the core.Config value, at zero
// allocations: name resolution through ByName, alias included, plus the
// static shape fields the network reads.
func TestByNameAllocFree(t *testing.T) {
	names := [...]string{NameProtectionless, NameSLPDAS, AliasSLP, NamePhantom, NameFakeSource, NameTier}
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		for _, name := range names {
			fam, err := ByName(name)
			if err != nil {
				t.Fatalf("ByName(%q): %v", name, err)
			}
			sink += len(fam.Name) + len(fam.Label)
			if fam.SearchPhase {
				sink++
			}
			if fam.TDMAData {
				sink++
			}
			if fam.UsesSearchDistance {
				sink++
			}
		}
	})
	if allocs != 0 {
		t.Errorf("protocol dispatch allocates %.1f per round of %d lookups, want 0", allocs, len(names))
	}
	if sink == 0 {
		t.Fatal("dispatch loop optimised away")
	}
}

func TestByNameUnknown(t *testing.T) {
	for _, name := range []string{"", "bogus", "SLP-DAS"} {
		fam, err := ByName(name)
		if err == nil {
			t.Fatalf("ByName(%q) = %v, want error", name, fam.Name)
		}
		// The error must teach: it lists the known names.
		if !strings.Contains(err.Error(), NamePhantom) || !strings.Contains(err.Error(), NameProtectionless) {
			t.Errorf("ByName(%q) error %q does not list known names", name, err)
		}
	}
}

// TestProtocolsDeterministicOrder: the table is declared by hand, so this
// is what keeps its names unique and in order.
func TestProtocolsDeterministicOrder(t *testing.T) {
	first := Protocols()
	for i := 1; i < len(first); i++ {
		if first[i-1].Name >= first[i].Name {
			t.Errorf("Protocols() not strictly increasing: %q before %q", first[i-1].Name, first[i].Name)
		}
	}
	for i := 0; i < 3; i++ {
		again := Protocols()
		if len(again) != len(first) {
			t.Fatalf("Protocols() length changed: %d vs %d", len(again), len(first))
		}
		for j := range again {
			if again[j].Name != first[j].Name {
				t.Fatalf("Protocols() order changed at %d: %q vs %q", j, again[j].Name, first[j].Name)
			}
		}
	}
	names := Names()
	if len(names) != len(first) {
		t.Fatalf("Names() length %d, want %d", len(names), len(first))
	}
	for i, in := range first {
		if names[i] != in.Name {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], in.Name)
		}
	}
	// Aliases resolve but are not listed.
	for _, n := range names {
		if n == AliasSLP {
			t.Errorf("alias %q listed in Names()", AliasSLP)
		}
	}
}
