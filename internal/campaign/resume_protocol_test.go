package campaign

import (
	"bytes"
	"strings"
	"testing"

	"slpdas/internal/protocol"
)

// protocolSpec is a one-axis campaign over the given families, small
// enough to drive through the stub runner.
func protocolSpec(protocols ...string) Spec {
	return Spec{GridSizes: []int{5}, Protocols: protocols, SearchDistances: []int{2}, Repeats: 2, BaseSeed: 3}
}

// TestScanResumableRejectsForeignProtocolFamily pins the protocol leg of
// resume coordinate verification: a file written with one family must be
// refused by a spec listing a different — or renamed — family, mirroring
// the attacker-coordinate checks. Silently resuming across a protocol
// change would splice two different experiments into one output file.
func TestScanResumableRejectsForeignProtocolFamily(t *testing.T) {
	spec := protocolSpec(protocol.NamePhantom)
	sum, err := run(spec, stubRun)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	full := renderJSONL(t, sum.Rows)

	// Positive control: the file's own spec accepts it.
	completed, _, err := spec.ScanResumable(bytes.NewReader(full), "jsonl")
	if err != nil {
		t.Fatalf("ScanResumable against own spec: %v", err)
	}
	if len(completed) != 1 || !completed[0] {
		t.Fatalf("completed = %v, want the single phantom cell", completed)
	}

	for name, foreign := range map[string]Spec{
		"different family": protocolSpec(protocol.NameFakeSource),
		"renamed family":   protocolSpec(protocol.NameTier),
		"paper pair":       protocolSpec(protocol.NameProtectionless, protocol.AliasSLP),
	} {
		_, _, err := foreign.ScanResumable(bytes.NewReader(full), "jsonl")
		if err == nil {
			t.Errorf("%s: file written with %q accepted", name, protocol.NamePhantom)
			continue
		}
		if !strings.Contains(err.Error(), "protocol") {
			t.Errorf("%s: error %q does not name the protocol coordinate", name, err)
		}
	}
}

// TestScanResumableAliasIsNotItsCanonicalName pins that the axis records
// the user's chosen spelling: "slp" and "slp-das" resolve to the same
// family but are distinct campaign coordinates, so a file written under
// one spelling is refused by a spec using the other rather than silently
// renaming half the rows.
func TestScanResumableAliasIsNotItsCanonicalName(t *testing.T) {
	aliasSpec := protocolSpec(protocol.AliasSLP)
	sum, err := run(aliasSpec, stubRun)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	full := renderJSONL(t, sum.Rows)

	if _, _, err := aliasSpec.ScanResumable(bytes.NewReader(full), "jsonl"); err != nil {
		t.Fatalf("alias spec rejected its own file: %v", err)
	}
	canonical := protocolSpec(protocol.NameSLPDAS)
	if _, _, err := canonical.ScanResumable(bytes.NewReader(full), "jsonl"); err == nil {
		t.Error("spec naming slp-das accepted a file written as slp")
	}
}
