package core

import (
	"reflect"
	"testing"

	"slpdas/internal/protocol"
	"slpdas/internal/topo"
)

// familyConfig builds a small-grid config for one protocol family.
func familyConfig(name string) Config {
	cfg := Default()
	cfg.Protocol = must(protocol.ByName(name))
	cfg.SearchDistance = 2
	return cfg
}

// TestEveryFamilyDeterministic pins per-family determinism: for every
// protocol family, the same (config, seed) produces a deeply equal
// Result across independent networks. Run under -race this also shakes
// out unsynchronised shared state inside family instances.
func TestEveryFamilyDeterministic(t *testing.T) {
	g, err := topo.DefaultGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	sink, source := topo.GridCentre(5), topo.GridTopLeft()
	for _, name := range protocol.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := familyConfig(name)
			a := freshResult(t, g, sink, source, cfg, 42)
			b := freshResult(t, g, sink, source, cfg, 42)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("same (cfg, seed) diverged:\nfirst: %+v\nsecond: %+v", a, b)
			}
			fam, err := protocol.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if a.Protocol != fam.Label {
				t.Errorf("Result.Protocol = %q, want label %q", a.Protocol, fam.Label)
			}
			if a.SourceDeliveries == 0 {
				t.Errorf("%s delivered no source messages", name)
			}
		})
	}
}

// TestResetAcrossFamilies extends the arena no-drift audit to the protocol
// axis: one network cycled through every family via Reset must
// match fresh per-family networks, including a replay of the first family
// after the others dirtied per-family instance state.
func TestResetAcrossFamilies(t *testing.T) {
	g, err := topo.DefaultGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	sink, source := topo.GridCentre(5), topo.GridTopLeft()

	names := protocol.Names()
	sequence := append(append([]string{}, names...), names[0]) // replay the first
	first := familyConfig(sequence[0])

	net, err := NewNetwork(g, sink, source, first, 7)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	var arena []*Result
	for i, name := range sequence {
		if i > 0 {
			if err := net.Reset(familyConfig(name), 7); err != nil {
				t.Fatalf("Reset(%s): %v", name, err)
			}
		}
		res, err := net.Run()
		if err != nil {
			t.Fatalf("Run(%s): %v", name, err)
		}
		arena = append(arena, res)
	}
	for i, name := range sequence {
		fresh := freshResult(t, g, sink, source, familyConfig(name), 7)
		if !reflect.DeepEqual(arena[i], fresh) {
			t.Errorf("%s (step %d): arena result diverges from fresh network:\narena: %+v\nfresh: %+v",
				name, i, arena[i], fresh)
		}
	}
	if !reflect.DeepEqual(arena[0], arena[len(arena)-1]) {
		t.Errorf("replaying %s after cycling every family diverged:\nfirst: %+v\nagain: %+v",
			sequence[0], arena[0], arena[len(arena)-1])
	}
}
