package fault

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"slpdas/internal/topo"
)

func testEnv(t *testing.T, side int) Env {
	t.Helper()
	g, err := topo.DefaultGrid(side)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return Env{
		Graph:     g,
		Sink:      topo.GridIndex(side, side/2, side/2),
		Source:    0,
		DataStart: 10 * time.Second,
		Period:    time.Second,
		Horizon:   40 * time.Second,
	}
}

func TestParseCanonicalRoundTrip(t *testing.T) {
	cases := []struct {
		in        string
		canonical string
		kind      Kind
	}{
		{"none", "none", None},
		{"", "none", None},
		{"crash:0.2", "crash:0.2", Crash},
		{"  crash:0.2  ", "crash:0.2", Crash},
		{"churn:0.1:3", "churn:0.1:3", Churn},
		{"churn:0.25:1.5", "churn:0.25:1.5", Churn},
		{"link:0.05", "link:0.05", Link},
		{"blackout:2@5", "blackout:2@5", Blackout},
		{"blackout:1.5@0", "blackout:1.5@0", Blackout},
		{"fail:3+8+17+21@2s", "fail:3+8+17+21@2s", Fail},
		{"fail:16@0s", "fail:16@0s", Fail},
		{"fail:0@0", "fail:0@0s", Fail},
		{"fail:5@1500ms", "fail:5@1.5s", Fail},
	}
	for _, c := range cases {
		spec, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if spec.Kind != c.kind {
			t.Errorf("Parse(%q).Kind = %d, want %d", c.in, spec.Kind, c.kind)
		}
		if got := spec.String(); got != c.canonical {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.canonical)
		}
		again, err := Parse(spec.String())
		if err != nil || !reflect.DeepEqual(again, spec) {
			t.Errorf("Parse∘String not identity for %q: %+v vs %+v (%v)", c.in, again, spec, err)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"crash", "crash:", "crash:x", "crash:0", "crash:1.5", "crash:-0.1",
		"churn:0.2", "churn:0.2:", "churn:0.2:0", "churn:0.2:-1", "churn:x:1",
		"link:2", "link:",
		"blackout:2", "blackout:@5", "blackout:2@", "blackout:0@5", "blackout:2@-1",
		"meteor:0.5", "crash:0.2:extra:parts",
		"crash:NaN", "churn:0.2:NaN", "churn:0.2:+Inf", "blackout:NaN@1", "blackout:+Inf@1",
		"fail:3", "fail:3,8@2s", "fail:@2s", "fail:3+@2s", "fail:-1@2s", "fail:3@-1s",
		"fail:3@", "fail:3@2", "fail:x@2s", "fail:99999999999@0s",
	} {
		if spec, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted as %+v, want error", in, spec)
		}
	}
}

func TestPlanPureFunctionOfSeed(t *testing.T) {
	env := testEnv(t, 7)
	spec := Spec{Kind: Churn, Rate: 0.3, MTTR: 2}
	a, err := New(spec, env, 42)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	b, err := New(spec, env, 42)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same (spec, env, seed) produced different plans")
	}
	c, err := New(spec, env, 43)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical plans (suspicious for rate 0.3 on 49 nodes)")
	}
}

func TestEmptySpecMintsNothing(t *testing.T) {
	env := testEnv(t, 5)
	p, err := New(Spec{}, env, 7)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !p.Empty() {
		t.Errorf("empty spec produced %d events", len(p.Events))
	}
}

func TestPlanEventsOrderedAndInWindow(t *testing.T) {
	env := testEnv(t, 9)
	for _, spec := range []Spec{
		{Kind: Crash, Rate: 0.5},
		{Kind: Churn, Rate: 0.5, MTTR: 3},
		{Kind: Link, Rate: 0.3},
		{Kind: Blackout, Radius: 2, Period: 4},
	} {
		p, err := New(spec, env, 11)
		if err != nil {
			t.Fatalf("New(%v): %v", spec, err)
		}
		if p.Empty() {
			t.Fatalf("New(%v): empty plan at these rates is wildly improbable", spec)
		}
		for i, ev := range p.Events {
			if ev.At < env.DataStart || ev.At > env.Horizon {
				t.Errorf("%v event %d at %v outside [%v, %v]", spec, i, ev.At, env.DataStart, env.Horizon)
			}
			if i > 0 && ev.At < p.Events[i-1].At {
				t.Errorf("%v events out of order at %d", spec, i)
			}
		}
		if err := p.Validate(env); err != nil {
			t.Errorf("freshly minted plan fails Validate: %v", err)
		}
	}
}

func TestCrashSparesSinkAndSource(t *testing.T) {
	env := testEnv(t, 5)
	p, err := New(Spec{Kind: Crash, Rate: 1}, env, 3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if want := env.Graph.Len() - 2; len(p.Events) != want {
		t.Errorf("rate-1 crash produced %d events, want %d (all but sink and source)", len(p.Events), want)
	}
	for _, ev := range p.Events {
		if ev.Node == env.Sink || ev.Node == env.Source {
			t.Errorf("crash plan kills %d (sink=%d source=%d)", ev.Node, env.Sink, env.Source)
		}
	}
}

func TestChurnRecoveryOffsetAndHorizonDrop(t *testing.T) {
	env := testEnv(t, 7)
	mttr := 2.5
	p, err := New(Spec{Kind: Churn, Rate: 1, MTTR: mttr}, env, 9)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	offset := time.Duration(mttr * float64(env.Period))
	crashAt := make(map[topo.NodeID]time.Duration)
	recovered := make(map[topo.NodeID]bool)
	for _, ev := range p.Events {
		switch ev.Op {
		case OpCrash:
			crashAt[ev.Node] = ev.At
		case OpRecover:
			recovered[ev.Node] = true
			want := crashAt[ev.Node] + offset
			if ev.At != want {
				t.Errorf("node %d recovers at %v, want crash+MTTR = %v", ev.Node, ev.At, want)
			}
			if ev.At > env.Horizon {
				t.Errorf("node %d recovery at %v past horizon %v not dropped", ev.Node, ev.At, env.Horizon)
			}
		}
	}
	for id, at := range crashAt {
		beyond := at+offset > env.Horizon
		if beyond == recovered[id] {
			t.Errorf("node %d crash at %v: recovery kept=%v, horizon=%v offset=%v", id, at, recovered[id], env.Horizon, offset)
		}
	}
}

func TestBlackoutRadiusAndTiming(t *testing.T) {
	env := testEnv(t, 9)
	spec := Spec{Kind: Blackout, Radius: 1.5, Period: 3}
	p, err := New(spec, env, 5)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	wantAt := env.DataStart + 3*env.Period
	if p.Empty() {
		t.Fatal("blackout always kills at least the centre node")
	}
	for _, ev := range p.Events {
		if ev.Op != OpCrash || ev.At != wantAt {
			t.Errorf("blackout event %+v, want crash at %v", ev, wantAt)
		}
	}
	// The dead set must be a disc: every victim within radius of some
	// common centre. Recover the centre as a position all victims share.
	radius := spec.Radius*env.Graph.RadioRange() + 1e-9
	found := false
	for id := topo.NodeID(0); int(id) < env.Graph.Len(); id++ {
		c := env.Graph.Position(id)
		ok := true
		for _, ev := range p.Events {
			if env.Graph.Position(ev.Node).DistanceTo(c) > radius {
				ok = false
				break
			}
		}
		if ok {
			found = true
			break
		}
	}
	if !found {
		t.Error("blackout victims are not contained in any node-centred disc of the spec radius")
	}
}

func TestBlackoutPastHorizonRejected(t *testing.T) {
	env := testEnv(t, 5)
	_, err := New(Spec{Kind: Blackout, Radius: 1, Period: 1000}, env, 1)
	if err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Errorf("blackout past horizon: err = %v, want horizon error", err)
	}
}

func TestLinkEventsNameRealEdges(t *testing.T) {
	env := testEnv(t, 7)
	p, err := New(Spec{Kind: Link, Rate: 0.5}, env, 21)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, ev := range p.Events {
		if ev.Op != OpLinkDown {
			t.Fatalf("link plan contains %v", ev.Op)
		}
		if ev.Node >= ev.Peer {
			t.Errorf("link event endpoints not canonical: %d–%d", ev.Node, ev.Peer)
		}
		adjacent := false
		for _, nb := range env.Graph.Neighbors(ev.Node) {
			if nb == ev.Peer {
				adjacent = true
				break
			}
		}
		if !adjacent {
			t.Errorf("link event %d–%d is not an edge of the topology", ev.Node, ev.Peer)
		}
	}
}

func TestValidateCatchesForeignPlan(t *testing.T) {
	env := testEnv(t, 5)
	p := &Plan{Events: []Event{{At: 12 * time.Second, Op: OpCrash, Node: 999}}}
	if err := p.Validate(env); err == nil {
		t.Error("Validate accepted a crash of a nonexistent node")
	}
	p = &Plan{Events: []Event{{At: env.Horizon + time.Second, Op: OpCrash, Node: 1}}}
	if err := p.Validate(env); err == nil {
		t.Error("Validate accepted an event past the horizon")
	}
}

// TestParseFailCanonicalisesIDs: a fail spec's id list is a set — any
// permutation, with or without repeats, parses to one Spec and prints one
// canonical string, so the crashes it schedules cannot depend on how the
// ids were written.
func TestParseFailCanonicalisesIDs(t *testing.T) {
	want := Spec{Kind: Fail, Nodes: []topo.NodeID{3, 8, 17, 21}, At: 2 * time.Second}
	for _, in := range []string{
		"fail:3+8+17+21@2s",
		"fail:21+8+17+3@2s",
		"fail:17+3+21+8@2000ms",
		"fail:3+3+21+8+17+21@2s",
	} {
		spec, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if !reflect.DeepEqual(spec, want) {
			t.Errorf("Parse(%q) = %+v, want %+v", in, spec, want)
		}
		if got := spec.String(); got != "fail:3+8+17+21@2s" {
			t.Errorf("Parse(%q).String() = %q", in, got)
		}
	}
}

// TestFailPlan: a fail spec crashes exactly the named nodes at the named
// absolute time — the sink and the source included — and New rejects ids
// past the topology and times past the horizon.
func TestFailPlan(t *testing.T) {
	env := testEnv(t, 5)
	spec, err := Parse("fail:0+12+3@2s") // 0 is the source, 12 the sink
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(spec, env, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want := []Event{
		{At: 2 * time.Second, Op: OpCrash, Node: 0},
		{At: 2 * time.Second, Op: OpCrash, Node: 3},
		{At: 2 * time.Second, Op: OpCrash, Node: 12},
	}
	if !reflect.DeepEqual(p.Events, want) {
		t.Errorf("plan = %+v, want %+v", p.Events, want)
	}
	if other, _ := New(spec, env, 2); !reflect.DeepEqual(p, other) {
		t.Error("fail plan depends on the seed")
	}

	if _, err := New(Spec{Kind: Fail, Nodes: []topo.NodeID{topo.NodeID(env.Graph.Len())}}, env, 1); err == nil ||
		!strings.Contains(err.Error(), "node 25") {
		t.Errorf("id = g.Len(): err = %v, want an error naming node 25", err)
	}
	if _, err := Parse("fail:-1@1s"); err == nil {
		t.Error("Parse accepted a negative node id")
	}
	if _, err := New(Spec{Kind: Fail, Nodes: []topo.NodeID{1}, At: env.Horizon + time.Nanosecond}, env, 1); err == nil ||
		!strings.Contains(err.Error(), "horizon") {
		t.Errorf("time past horizon: err = %v, want horizon error", err)
	}
	if _, err := New(Spec{Kind: Fail, Nodes: []topo.NodeID{1}, At: env.Horizon}, env, 1); err != nil {
		t.Errorf("New rejected a crash at the horizon: %v", err)
	}
	if err := (Spec{Kind: Fail, Nodes: []topo.NodeID{8, 3}}).Validate(); err == nil {
		t.Error("Validate accepted an unsorted id list")
	}
}

// FuzzParse: every accepted spec prints a canonical String that parses
// back to a deeply equal Spec and is its own fixed point, and expanding
// it on a small grid never panics.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"none", "", "crash:0.2", "churn:0.1:3", "churn:0.25:1.5", "link:0.05",
		"blackout:2@5", "blackout:1.5@0", "fail:3+8+17+21@2s", "fail:21+3+3@1.5s",
		"fail:24@0s", "fail:25@0s", "fail:1@1000h", "crash:NaN", "churn:1:+Inf",
	} {
		f.Add(s)
	}
	g, err := topo.DefaultGrid(5)
	if err != nil {
		f.Fatal(err)
	}
	env := Env{Graph: g, Sink: 12, Source: 0, DataStart: 10 * time.Second, Period: time.Second, Horizon: 40 * time.Second}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := Parse(s)
		if err != nil {
			return
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
		_ = spec.Validate()
		_, _ = New(spec, env, 1)
	})
}
