// Package fault is the deterministic fault-injection subsystem: it turns a
// compact fault specification (a campaign axis like "churn:0.2:3") into a
// concrete, fully-ordered plan of timed events — node crashes, crashes
// with recovery, persistent link failures, region blackouts, named nodes
// failing at a named time — as a pure function of (spec, environment,
// seed).
//
// Determinism contract: a Plan is minted from a dedicated named xrand
// stream (label "fault"), and that stream is only created when the spec is
// non-empty. The default "none" axis therefore draws nothing, perturbs no
// other consumer of the run seed, and leaves every existing golden
// byte-identical; a non-empty axis yields the same plan for the same
// (spec, env, seed) regardless of worker count, sharding or resume.
package fault

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"slpdas/internal/topo"
	"slpdas/internal/xrand"
)

// Kind enumerates the fault families a Spec can select.
type Kind uint8

const (
	// None injects nothing; the zero Spec.
	None Kind = iota
	// Crash fails each eligible node with probability Rate at a random
	// time in the data phase, permanently.
	Crash
	// Churn is Crash plus recovery: each crashed node rejoins after a
	// deterministic MTTR measured in data periods, forcing GCN
	// re-convergence and slot re-acquisition.
	Churn
	// Link permanently fails each link with probability Rate at a random
	// time in the data phase.
	Link
	// Blackout crashes every node within Radius radio ranges of a
	// uniformly chosen node at the start of data period Period,
	// permanently.
	Blackout
	// Fail crashes the named Nodes permanently at the absolute simulated
	// time At, measured from the start of the run (so At = 0 kills them
	// before neighbour discovery). It draws no randomness.
	Fail
)

// Grammar lists the fault axis forms Parse accepts, for CLI help text.
const Grammar = "none, crash:<rate>, churn:<rate>:<mttr>, link:<rate>, blackout:<r>@<p>, fail:<id>[+<id>...]@<duration>"

// Spec is a parsed fault axis. The zero value means "no faults". Crash and
// Churn spare the sink and the source (their loss is a different
// experiment: see Blackout and Fail, which spare nobody).
type Spec struct {
	Kind   Kind
	Rate   float64       // Crash, Churn, Link: per-node / per-link failure probability
	MTTR   float64       // Churn: time to repair, in data periods
	Radius float64       // Blackout: radius, in multiples of the radio range
	Period int           // Blackout: data period index at which the region dies
	Nodes  []topo.NodeID // Fail: the victims, sorted, without duplicates
	At     time.Duration // Fail: absolute time of the crash
}

// Empty reports whether the spec injects no faults.
func (s Spec) Empty() bool { return s.Kind == None }

// Validate checks the spec's parameters.
func (s Spec) Validate() error {
	switch s.Kind {
	case None:
		return nil
	case Crash, Link:
		if !(s.Rate > 0 && s.Rate <= 1) { // NaN fails this form too
			return fmt.Errorf("fault: rate %g out of (0,1]", s.Rate)
		}
	case Churn:
		if !(s.Rate > 0 && s.Rate <= 1) {
			return fmt.Errorf("fault: rate %g out of (0,1]", s.Rate)
		}
		if !(s.MTTR > 0) || math.IsInf(s.MTTR, 1) {
			return fmt.Errorf("fault: churn MTTR %g must be positive and finite", s.MTTR)
		}
	case Blackout:
		if !(s.Radius > 0) || math.IsInf(s.Radius, 1) {
			return fmt.Errorf("fault: blackout radius %g must be positive and finite", s.Radius)
		}
		if s.Period < 0 {
			return fmt.Errorf("fault: blackout period %d must be non-negative", s.Period)
		}
	case Fail:
		if len(s.Nodes) == 0 {
			return fmt.Errorf("fault: fail names no nodes")
		}
		for i, id := range s.Nodes {
			if id < 0 {
				return fmt.Errorf("fault: fail names negative node id %d", id)
			}
			if i > 0 && id <= s.Nodes[i-1] {
				return fmt.Errorf("fault: fail node ids must be sorted without duplicates, got %v", s.Nodes)
			}
		}
		if s.At < 0 {
			return fmt.Errorf("fault: fail time %v must be non-negative", s.At)
		}
	default:
		return fmt.Errorf("fault: unknown kind %d", s.Kind)
	}
	return nil
}

// String renders the canonical axis form Parse accepts; Parse∘String is
// the identity on valid specs, so campaign cells can store the canonical
// string and resume verification can compare it.
func (s Spec) String() string {
	switch s.Kind {
	case Crash:
		return "crash:" + formatFloat(s.Rate)
	case Churn:
		return "churn:" + formatFloat(s.Rate) + ":" + formatFloat(s.MTTR)
	case Link:
		return "link:" + formatFloat(s.Rate)
	case Blackout:
		return "blackout:" + formatFloat(s.Radius) + "@" + strconv.Itoa(s.Period)
	case Fail:
		ids := make([]string, len(s.Nodes))
		for i, id := range s.Nodes {
			ids[i] = strconv.Itoa(int(id))
		}
		return "fail:" + strings.Join(ids, "+") + "@" + s.At.String()
	default:
		return "none"
	}
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Parse reads one fault axis value:
//
//	none                no faults (also the empty string)
//	crash:<rate>        permanent crashes, per-node probability <rate>
//	churn:<rate>:<mttr> crashes that recover after <mttr> data periods
//	link:<rate>         permanent link failures, per-link probability <rate>
//	blackout:<r>@<p>    region death: radius <r> radio ranges, at period <p>
//	fail:<id>[+<id>...]@<duration>
//	                    the named nodes die at simulated time <duration>
//
// Fail ids are joined by '+' (campaign axes split on commas) and
// canonicalised: order and repeats do not matter.
func Parse(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return Spec{}, nil
	}
	name, rest, _ := strings.Cut(s, ":")
	var spec Spec
	switch name {
	case "crash", "link":
		rate, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("fault: bad %s rate %q: %v", name, rest, err)
		}
		spec = Spec{Kind: Crash, Rate: rate}
		if name == "link" {
			spec.Kind = Link
		}
	case "churn":
		rateStr, mttrStr, ok := strings.Cut(rest, ":")
		if !ok {
			return Spec{}, fmt.Errorf("fault: churn wants churn:<rate>:<mttr>, got %q", s)
		}
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("fault: bad churn rate %q: %v", rateStr, err)
		}
		mttr, err := strconv.ParseFloat(mttrStr, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("fault: bad churn MTTR %q: %v", mttrStr, err)
		}
		spec = Spec{Kind: Churn, Rate: rate, MTTR: mttr}
	case "blackout":
		radStr, perStr, ok := strings.Cut(rest, "@")
		if !ok {
			return Spec{}, fmt.Errorf("fault: blackout wants blackout:<radius>@<period>, got %q", s)
		}
		radius, err := strconv.ParseFloat(radStr, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("fault: bad blackout radius %q: %v", radStr, err)
		}
		period, err := strconv.Atoi(perStr)
		if err != nil {
			return Spec{}, fmt.Errorf("fault: bad blackout period %q: %v", perStr, err)
		}
		spec = Spec{Kind: Blackout, Radius: radius, Period: period}
	case "fail":
		idsStr, atStr, ok := strings.Cut(rest, "@")
		if !ok {
			return Spec{}, fmt.Errorf("fault: fail wants fail:<id>[+<id>...]@<duration>, got %q", s)
		}
		var nodes []topo.NodeID
		for _, f := range strings.Split(idsStr, "+") {
			id, err := strconv.ParseInt(f, 10, 32)
			if err != nil {
				return Spec{}, fmt.Errorf("fault: bad fail node id %q: %v", f, err)
			}
			nodes = append(nodes, topo.NodeID(id))
		}
		slices.Sort(nodes)
		at, err := time.ParseDuration(atStr)
		if err != nil {
			return Spec{}, fmt.Errorf("fault: bad fail time %q: %v", atStr, err)
		}
		spec = Spec{Kind: Fail, Nodes: slices.Compact(nodes), At: at}
	default:
		return Spec{}, fmt.Errorf("fault: unknown fault kind %q (want %s)", name, Grammar)
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// Op is the action one Event performs.
type Op uint8

const (
	// OpCrash fails a node: radio silent, computation stopped.
	OpCrash Op = iota + 1
	// OpRecover rejoins a previously crashed node with blank state.
	OpRecover
	// OpLinkDown permanently fails the undirected link Node–Peer.
	OpLinkDown
)

// String names the op for error messages and test output.
func (o Op) String() string {
	switch o {
	case OpCrash:
		return "crash"
	case OpRecover:
		return "recover"
	case OpLinkDown:
		return "link-down"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Event is one timed fault action.
type Event struct {
	At   time.Duration
	Op   Op
	Node topo.NodeID // crash/recover target; link endpoint A
	Peer topo.NodeID // link endpoint B (OpLinkDown only)
}

// Plan is a fully-ordered fault schedule: events sorted by
// (At, Op, Node, Peer), ready for the simulator.
type Plan struct {
	Events []Event
}

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Env describes the run the plan is minted for: the topology and the data
// phase's timing. Horizon is the instant the run ends; no event may land
// after it.
type Env struct {
	Graph     *topo.Graph
	Sink      topo.NodeID
	Source    topo.NodeID
	DataStart time.Duration // start of the data phase (faults strike during data)
	Period    time.Duration // one TDMA data period
	Horizon   time.Duration // end of the run; no event lands after this
}

// New expands spec into a Plan for env, drawing every random choice from
// the dedicated "fault" stream of seed. It is a pure function of its
// arguments. An empty spec returns a nil plan without minting the stream.
// Churn recoveries that would land after the horizon are dropped — the
// node stays dead, exactly as a permanent crash. A blackout whose period
// starts after the horizon is an error: the spec names a time the run
// never reaches. So is a fail spec naming a time past the horizon or a
// node the topology lacks.
func New(spec Spec, env Env, seed uint64) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Empty() {
		return nil, nil
	}
	if spec.Kind == Fail {
		// Named nodes at a named time: nothing to draw, and the sorted ids
		// are already in plan order.
		p := &Plan{Events: make([]Event, len(spec.Nodes))}
		for i, id := range spec.Nodes {
			p.Events[i] = Event{At: spec.At, Op: OpCrash, Node: id}
		}
		if err := p.Validate(env); err != nil {
			return nil, err
		}
		return p, nil
	}
	if env.DataStart >= env.Horizon {
		return nil, fmt.Errorf("fault: data window [%v, %v) is empty", env.DataStart, env.Horizon)
	}
	rng := xrand.NewNamed(seed, "fault")
	window := int64(env.Horizon - env.DataStart)
	g := env.Graph
	var events []Event

	switch spec.Kind {
	case Crash, Churn:
		for id := topo.NodeID(0); int(id) < g.Len(); id++ {
			if id == env.Sink || id == env.Source {
				continue
			}
			if rng.Float64() >= spec.Rate {
				continue
			}
			at := env.DataStart + time.Duration(rng.Int64N(window))
			events = append(events, Event{At: at, Op: OpCrash, Node: id})
			if spec.Kind == Churn {
				recoverAt := at + time.Duration(spec.MTTR*float64(env.Period))
				if recoverAt <= env.Horizon {
					events = append(events, Event{At: recoverAt, Op: OpRecover, Node: id})
				}
			}
		}
	case Link:
		for a := topo.NodeID(0); int(a) < g.Len(); a++ {
			for _, b := range g.Neighbors(a) {
				if b <= a { // each undirected link drawn once, in canonical order
					continue
				}
				if rng.Float64() >= spec.Rate {
					continue
				}
				at := env.DataStart + time.Duration(rng.Int64N(window))
				events = append(events, Event{At: at, Op: OpLinkDown, Node: a, Peer: b})
			}
		}
	case Blackout:
		at := env.DataStart + time.Duration(spec.Period)*env.Period
		if at > env.Horizon {
			return nil, fmt.Errorf("fault: blackout at period %d (t=%v) is after the run horizon %v", spec.Period, at, env.Horizon)
		}
		centre := g.Position(topo.NodeID(rng.Int64N(int64(g.Len()))))
		radius := spec.Radius * g.RadioRange()
		for id := topo.NodeID(0); int(id) < g.Len(); id++ {
			if g.Position(id).DistanceTo(centre) <= radius {
				events = append(events, Event{At: at, Op: OpCrash, Node: id})
			}
		}
	}

	slices.SortStableFunc(events, func(a, b Event) int {
		if a.At != b.At {
			if a.At < b.At {
				return -1
			}
			return 1
		}
		if a.Op != b.Op {
			return int(a.Op) - int(b.Op)
		}
		if a.Node != b.Node {
			return int(a.Node) - int(b.Node)
		}
		return int(a.Peer) - int(b.Peer)
	})
	if len(events) == 0 {
		return nil, nil
	}
	return &Plan{Events: events}, nil
}

// Validate checks every event in the plan against the environment: node
// ids, link endpoints included, must exist in the topology, and no event
// may land after the horizon. New applies it to fail specs, whose ids and
// time come from the user; the drawn kinds are valid by construction.
func (p *Plan) Validate(env Env) error {
	if p == nil {
		return nil
	}
	g := env.Graph
	for _, ev := range p.Events {
		if !g.Valid(ev.Node) {
			return fmt.Errorf("fault: %s event names node %d, but the topology has %d nodes", ev.Op, ev.Node, g.Len())
		}
		if ev.Op == OpLinkDown && !g.Valid(ev.Peer) {
			return fmt.Errorf("fault: link-down event names node %d, but the topology has %d nodes", ev.Peer, g.Len())
		}
		if ev.At > env.Horizon {
			return fmt.Errorf("fault: %s event at %v is after the run horizon %v", ev.Op, ev.At, env.Horizon)
		}
	}
	return nil
}

// Window returns the first and last event times of the plan. A nil or
// empty plan returns (0, 0).
func (p *Plan) Window() (first, last time.Duration) {
	if p.Empty() {
		return 0, 0
	}
	return p.Events[0].At, p.Events[len(p.Events)-1].At
}
