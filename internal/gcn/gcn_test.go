package gcn

import (
	"errors"
	"testing"
	"time"

	"slpdas/internal/des"
	"slpdas/internal/topo"
)

type ping struct{ n int }
type pong struct{ n int }

// node is the test programs' per-process context.
type node struct{ peer int }

const (
	keyPing = iota
	keyPong
)

// newProcess hosts a process of its own on c.
func newProcess(e *Engine[*node], id topo.NodeID, c *node) *Process[*node] {
	p := new(Process[*node])
	e.Host(p, id, c)
	return p
}

func TestReceiveActionDispatchesByKey(t *testing.T) {
	prog := NewProgram[*node]()
	var pings, pongs []int
	prog.Receive(keyPing, "rcvPing", func(_ *node, _ topo.NodeID, m Message) { pings = append(pings, m.(ping).n) })
	prog.Receive(keyPong, "rcvPong", func(_ *node, _ topo.NodeID, m Message) { pongs = append(pongs, m.(pong).n) })
	e := NewEngine(des.New(), prog)
	p := newProcess(e, 1, &node{})

	e.Deliver(p, 2, keyPing, ping{1})
	e.Deliver(p, 2, keyPong, pong{2})
	e.Deliver(p, 2, keyPing, ping{3})
	if len(pings) != 2 || pings[0] != 1 || pings[1] != 3 {
		t.Errorf("pings = %v", pings)
	}
	if len(pongs) != 1 || pongs[0] != 2 {
		t.Errorf("pongs = %v", pongs)
	}
}

// TestUnmatchedMessageDropped: a delivery whose key has no receive action
// — past the table, negative, or a gap in it — is dropped and counted,
// and costs one step of the budget, as a handled one does, so a flood of
// unhandled frames cannot run a process for free.
func TestUnmatchedMessageDropped(t *testing.T) {
	prog := NewProgram[*node]()
	prog.Receive(keyPong, "rcvPong", func(*node, topo.NodeID, Message) {})
	// After each delivery the guard fires spins times: with a budget of
	// three, two firings trip it only if the delivery took the first step.
	spins := 0
	prog.Guard("spin", func(*node) bool { return spins > 0 }, func(*node) { spins-- })
	e := NewEngine(des.New(), prog)
	e.stepBudget = 3
	p := newProcess(e, 1, &node{})
	var traced []string
	e.OnAction = func(_ *Process[*node], name string) { traced = append(traced, name) }

	for i, key := range []int{keyPong + 1, -1, keyPing} {
		spins = 1
		e.Deliver(p, 2, key, ping{i})
		if p.dropped != uint64(i+1) || p.Err() != nil || spins != 0 {
			t.Fatalf("key %d: dropped = %d err = %v spins = %d, want %d, nil, 0", key, p.dropped, p.Err(), spins, i+1)
		}
	}
	if len(traced) != 3 || traced[0] != "spin" {
		t.Errorf("traced %v: a dropped delivery reports no action", traced)
	}
	spins = 2
	e.Deliver(p, 2, keyPing, ping{3})
	if !errors.Is(p.Err(), ErrStepBudget) || p.dropped != 4 {
		t.Errorf("Err = %v dropped = %d, want ErrStepBudget after drop + 2 guards on a budget of 3", p.Err(), p.dropped)
	}
	// A handled delivery is charged the same way.
	p.Reset()
	spins = 2
	e.Deliver(p, 2, keyPong, pong{0})
	if !errors.Is(p.Err(), ErrStepBudget) {
		t.Errorf("Err = %v, want ErrStepBudget after receive + 2 guards on a budget of 3", p.Err())
	}
}

func TestUnmatchedFloodChargesStepBudget(t *testing.T) {
	// Regression: dropping an unmatched frame used to cost no step, so a
	// flood of garbage frames bypassed the step budget. Each delivery is
	// now its own budgeted run in which the drop takes the first step.
	prog := NewProgram[*node]()
	prog.Receive(keyPing, "rcvPing", func(*node, topo.NodeID, Message) {})
	spins := 0
	prog.Guard("spin", func(*node) bool { return spins > 0 }, func(*node) { spins-- })
	e := NewEngine(des.New(), prog)
	e.stepBudget = 50
	p := newProcess(e, 1, &node{})
	// A flood larger than the budget drains cleanly, counting every drop:
	// the budget bounds one run, not the sum over deliveries.
	for i := 0; i < 60; i++ {
		e.Deliver(p, 2, keyPong, pong{i})
	}
	if p.Err() != nil || p.dropped != 60 {
		t.Fatalf("Err = %v dropped = %d, want nil, 60", p.Err(), p.dropped)
	}
	// A drop plus the 48 guard firings it enables stay within the budget.
	spins = 48
	e.Deliver(p, 2, keyPong, pong{60})
	if p.Err() != nil || spins != 0 || p.dropped != 61 {
		t.Fatalf("Err = %v spins = %d dropped = %d, want nil, 0, 61", p.Err(), spins, p.dropped)
	}
	// One firing more reaches it: the drop was charged its step.
	spins = 49
	e.Deliver(p, 2, keyPong, pong{61})
	if !errors.Is(p.Err(), ErrStepBudget) || p.dropped != 62 {
		t.Errorf("Err = %v dropped = %d, want ErrStepBudget (drop + 49 guards vs budget 50), 62", p.Err(), p.dropped)
	}
}

func TestReceiveKeyHoldsOneAction(t *testing.T) {
	prog := NewProgram[*node]()
	prog.Receive(keyPong, "rcvPong", func(*node, topo.NodeID, Message) {})
	for _, tc := range []struct {
		name string
		key  int
	}{{"shared key", keyPong}, {"negative key", -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Receive did not panic", tc.name)
				}
			}()
			prog.Receive(tc.key, "again", func(*node, topo.NodeID, Message) {})
		}()
	}
	// The gap below the registered key holds no action: pings drop.
	e := NewEngine(des.New(), prog)
	p := newProcess(e, 1, &node{})
	e.Deliver(p, 2, keyPing, ping{1})
	if p.dropped != 1 {
		t.Errorf("dropped = %d, want 1 for a key with no action", p.dropped)
	}
}

// TestDeadOrFailedProcessDropsDelivery: a crashed process and one that
// overran its step budget each drop a delivery without running or
// counting it, and keep nothing of it: a later stimulus runs no receive
// action.
func TestDeadOrFailedProcessDropsDelivery(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stop  func(e *Engine[*node], p *Process[*node])
		start func(e *Engine[*node], p *Process[*node])
	}{
		{"dead", func(_ *Engine[*node], p *Process[*node]) { p.Fail() }, func(_ *Engine[*node], p *Process[*node]) { p.Revive() }},
		{"failed", func(e *Engine[*node], p *Process[*node]) {
			e.stepBudget = 1
			e.Kickstart(p) // the guard below takes the one step, then trips
			e.stepBudget = defaultStepBudget
		}, func(e *Engine[*node], _ *Process[*node]) { e.Reset() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := NewProgram[*node]()
			var traced []string
			prog.Receive(0, "rcv", func(*node, topo.NodeID, Message) {})
			booted := false
			prog.Guard("boot", func(*node) bool { return !booted }, func(*node) { booted = true })
			e := NewEngine(des.New(), prog)
			p := newProcess(e, 1, &node{})
			tc.stop(e, p)
			if !p.dead && p.Err() == nil {
				t.Fatal("process neither dead nor failed")
			}
			e.OnAction = func(_ *Process[*node], name string) { traced = append(traced, name) }
			e.Deliver(p, 2, 0, ping{1})
			e.Deliver(p, 2, 1, ping{2}) // unhandled: still not counted
			if len(traced) != 0 || p.dropped != 0 {
				t.Errorf("stopped process ran %v, dropped %d", traced, p.dropped)
			}
			tc.start(e, p)
			e.Kickstart(p)
			for _, name := range traced {
				if name == "rcv" {
					t.Errorf("restarted process received a message delivered while it was %s: %v", tc.name, traced)
				}
			}
		})
	}
}

// TestStepBudgetTripsAfterDelivery: a delivery that enables two guards
// re-enabling each other forever fails the process within the budget, the
// receive action counted as its first step.
func TestStepBudgetTripsAfterDelivery(t *testing.T) {
	prog := NewProgram[*node]()
	a, b := false, false
	prog.Receive(0, "rcv", func(*node, topo.NodeID, Message) { a = true })
	prog.Guard("a", func(*node) bool { return a }, func(*node) { a, b = false, true })
	prog.Guard("b", func(*node) bool { return b }, func(*node) { a, b = true, false })
	e := NewEngine(des.New(), prog)
	e.stepBudget = 50
	steps := 0
	e.OnAction = func(*Process[*node], string) { steps++ }
	p := newProcess(e, 1, &node{})
	e.Deliver(p, 2, 0, ping{1})
	if !errors.Is(p.Err(), ErrStepBudget) || !errors.Is(e.Err(), ErrStepBudget) {
		t.Errorf("Err = %v, engine Err = %v, want ErrStepBudget", p.Err(), e.Err())
	}
	if steps != 50 {
		t.Errorf("ran %d actions, want the budget's 50 (receive included)", steps)
	}
}

func TestGuardActionRunsAfterChannelDrains(t *testing.T) {
	// Models Figure 2's "process:: rcv⟨⟩" action: its guard holds once
	// enough messages have been received, and it runs in the same stimulus
	// as the receive action that enabled it, after that action consumed
	// the message.
	prog := NewProgram[*node]()
	e := NewEngine(des.New(), prog)
	var order []string
	received := 0
	processed := false
	prog.Receive(0, "rcv", func(*node, topo.NodeID, Message) { received++; order = append(order, "rcv") })
	prog.Guard("process", func(*node) bool { return received >= 2 && !processed }, func(*node) {
		processed = true
		order = append(order, "process")
	})
	p := newProcess(e, 1, &node{})
	e.Deliver(p, 2, 0, ping{1})
	if processed {
		t.Fatal("guard fired before its condition held")
	}
	e.Deliver(p, 2, 0, ping{2})
	if !processed || len(order) != 3 || order[2] != "process" {
		t.Fatalf("order = %v, want [rcv rcv process]", order)
	}
}

func TestActionPriorityOrder(t *testing.T) {
	prog := NewProgram[*node]()
	var order []string
	a, b := true, true
	prog.Guard("first", func(*node) bool { return a }, func(*node) { order = append(order, "first"); a = false })
	prog.Guard("second", func(*node) bool { return b }, func(*node) { order = append(order, "second"); b = false })
	e := NewEngine(des.New(), prog)
	e.Kickstart(newProcess(e, 1, &node{}))
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Errorf("order = %v, want [first second]", order)
	}
}

// TestTimeoutAndGuardShareDeclarationOrder: an expired timer outranks a
// later guard and yields to an earlier one, exactly as declared.
func TestTimeoutAndGuardShareDeclarationOrder(t *testing.T) {
	prog := NewProgram[*node]()
	var order []string
	early, late := false, false
	prog.Guard("early", func(*node) bool { return early }, func(*node) { order = append(order, "early"); early = false })
	tick := prog.Timeout("tick", func(*node) { order = append(order, "tick"); early, late = true, true })
	prog.Guard("late", func(*node) bool { return late }, func(*node) { order = append(order, "late"); late = false })
	sim := des.New()
	e := NewEngine(sim, prog)
	p := newProcess(e, 1, &node{})
	p.Timer(tick).Set(time.Second)
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 3 || order[0] != "tick" || order[1] != "early" || order[2] != "late" {
		t.Errorf("order = %v, want [tick early late]", order)
	}
}

func TestTimerFiresAndConsumes(t *testing.T) {
	prog := NewProgram[*node]()
	sim := des.New()
	e := NewEngine(sim, prog)
	fired := 0
	var tm *Timer[*node]
	tick := prog.Timeout("tick", func(*node) {
		fired++
		if fired < 3 {
			tm.Set(100 * time.Millisecond) // periodic re-arm, like dissem
		}
	})
	tm = newProcess(e, 1, &node{}).Timer(tick)
	tm.Set(100 * time.Millisecond)
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 3 {
		t.Errorf("timer fired %d times, want 3", fired)
	}
	if sim.Now() != 300*time.Millisecond {
		t.Errorf("Now = %v, want 300ms", sim.Now())
	}
}

func TestTimerResetCancelsPrevious(t *testing.T) {
	prog := NewProgram[*node]()
	sim := des.New()
	var firedAt []time.Duration
	id := prog.Timeout("t", func(*node) { firedAt = append(firedAt, sim.Now()) })
	tm := newProcess(NewEngine(sim, prog), 1, &node{}).Timer(id)
	tm.Set(time.Second)
	tm.Set(2 * time.Second) // reset before expiry
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(firedAt) != 1 || firedAt[0] != 2*time.Second {
		t.Errorf("firedAt = %v, want [2s]", firedAt)
	}
	if sim.Executed() != 1 {
		t.Errorf("Executed = %d, want 1: the cancelled expiry is reaped, not run", sim.Executed())
	}
}

func TestTimerStop(t *testing.T) {
	prog := NewProgram[*node]()
	sim := des.New()
	fired := false
	id := prog.Timeout("t", func(*node) { fired = true })
	tm := newProcess(NewEngine(sim, prog), 1, &node{}).Timer(id)
	tm.Set(time.Second)
	if !tm.Pending() {
		t.Error("Pending = false after Set")
	}
	tm.Stop()
	if tm.Pending() {
		t.Error("Pending = true after Stop")
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestStepBudgetProtectsAgainstLivelock(t *testing.T) {
	prog := NewProgram[*node]()
	prog.Guard("always", func(*node) bool { return true }, func(*node) {})
	e := NewEngine(des.New(), prog)
	e.stepBudget = 50
	p := newProcess(e, 1, &node{})
	e.Kickstart(p)
	if !errors.Is(p.Err(), ErrStepBudget) {
		t.Errorf("Err = %v, want ErrStepBudget", p.Err())
	}
	if !errors.Is(e.Err(), ErrStepBudget) {
		t.Errorf("engine Err = %v, want ErrStepBudget", e.Err())
	}
}

func TestOnActionTracingHook(t *testing.T) {
	prog := NewProgram[*node]()
	ran := false
	prog.Receive(0, "rcv", func(*node, topo.NodeID, Message) {})
	prog.Guard("g", func(*node) bool { return !ran }, func(*node) { ran = true })
	e := NewEngine(des.New(), prog)
	var names []string
	e.OnAction = func(_ *Process[*node], name string) { names = append(names, name) }
	e.Deliver(newProcess(e, 1, &node{}), 2, 0, ping{1})
	if len(names) != 2 || names[0] != "rcv" || names[1] != "g" {
		t.Errorf("traced actions = %v, want [rcv g]", names)
	}
}

func TestTwoProcessExchange(t *testing.T) {
	// A deterministic two-process token exchange over one shared program:
	// each process forwards the token to the peer its own context names,
	// with an incremented count, until it reaches 10.
	sim := des.New()
	prog := NewProgram[*node]()
	e := NewEngine(sim, prog)
	procs := make([]*Process[*node], 2)
	final := 0
	prog.Receive(0, "token", func(c *node, _ topo.NodeID, m Message) {
		n := m.(ping).n
		if n >= 10 {
			final = n
			return
		}
		peer, from := procs[c.peer], procs[1-c.peer].ID()
		// Model transmission latency through the simulator.
		sim.ScheduleAfter(time.Millisecond, func() {
			e.Deliver(peer, from, 0, ping{n + 1})
		})
	})
	for i := range procs {
		procs[i] = newProcess(e, topo.NodeID(i), &node{peer: 1 - i})
	}
	sim.ScheduleAfter(0, func() { e.Deliver(procs[0], 1, 0, ping{0}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if final != 10 {
		t.Errorf("final token = %d, want 10", final)
	}
	if err := e.Err(); err != nil {
		t.Errorf("engine error: %v", err)
	}
}

func TestTimerNotPendingAfterFiring(t *testing.T) {
	// Regression: a fired-and-consumed timer must not report Pending,
	// otherwise re-arm-if-idle logic (like the dissemination budget
	// reset) deadlocks after the first expiry.
	prog := NewProgram[*node]()
	sim := des.New()
	fired := 0
	id := prog.Timeout("t", func(*node) { fired++ })
	tm := newProcess(NewEngine(sim, prog), 1, &node{}).Timer(id)
	tm.Set(time.Second)
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if tm.Pending() {
		t.Error("Pending() = true after the timer fired and was consumed")
	}
	// Re-arming must work again.
	tm.Set(time.Second)
	if !tm.Pending() {
		t.Error("Pending() = false after re-arm")
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 2 {
		t.Errorf("fired = %d after re-arm, want 2", fired)
	}
}

// TestTimersArePerProcess: processes sharing a program each own their
// instance of every program timer, and the timeout action runs on the
// context of the process whose timer expired.
func TestTimersArePerProcess(t *testing.T) {
	prog := NewProgram[*node]()
	sim := des.New()
	var firedBy []int
	id := prog.Timeout("t", func(c *node) { firedBy = append(firedBy, c.peer) })
	e := NewEngine(sim, prog)
	a, b := newProcess(e, 1, &node{peer: 1}), newProcess(e, 2, &node{peer: 2})
	a.Timer(id).Set(2 * time.Second)
	b.Timer(id).Set(time.Second)
	if a.Timer(id) == b.Timer(id) {
		t.Fatal("two processes share one timer instance")
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(firedBy) != 2 || firedBy[0] != 2 || firedBy[1] != 1 {
		t.Errorf("fired on contexts %v, want [2 1]", firedBy)
	}
}

// TestArmingTimerAllocFree: re-arming a timer schedules the timer itself,
// so the dissemination loop's Set costs no allocation.
func TestArmingTimerAllocFree(t *testing.T) {
	prog := NewProgram[*node]()
	sim := des.New()
	id := prog.Timeout("t", func(*node) {})
	tm := newProcess(NewEngine(sim, prog), 1, &node{}).Timer(id)
	for i := 0; i < 64; i++ { // warm the event pool and queue
		tm.Set(time.Millisecond)
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		tm.Set(time.Millisecond)
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("timer Set+expiry allocates %.1f/op, want 0", allocs)
	}
}

func TestProcessID(t *testing.T) {
	e := NewEngine(des.New(), NewProgram[*node]())
	p := newProcess(e, 42, &node{})
	if p.ID() != 42 {
		t.Errorf("ID = %d, want 42", p.ID())
	}
}

// TestEngineResetRewindsProcesses: Reset clears drop and failure
// accounting and disarms timers, expiry bits included, while the installed
// program and the engine's simulator keep working for the next run.
func TestEngineResetRewindsProcesses(t *testing.T) {
	sim := des.New()
	prog := NewProgram[*node]()
	var got []int
	spin := false
	prog.Receive(keyPing, "ping", func(_ *node, _ topo.NodeID, m Message) {
		got = append(got, m.(ping).n)
		spin = m.(ping).n < 0
	})
	prog.Guard("spin", func(*node) bool { return spin }, func(*node) {})
	tick := prog.Timeout("tick", func(*node) {})
	e := NewEngine(sim, prog)
	e.stepBudget = 5
	p := newProcess(e, 1, &node{})
	tm := p.Timer(tick)
	tm.Set(time.Second)

	e.Deliver(p, 2, keyPing, ping{1})
	e.Deliver(p, 2, keyPong, pong{9})  // dropped: no receive action for its key
	e.Deliver(p, 2, keyPing, ping{-1}) // spins past the 5-step budget → failed
	if p.Err() == nil || p.dropped != 1 {
		t.Fatalf("before reset: err=%v dropped=%d, want a step-budget failure and 1 drop", p.Err(), p.dropped)
	}
	p.expired = 1 << tick

	sim.Reset()
	e.Reset()
	if p.Err() != nil || p.dropped != 0 {
		t.Errorf("after Reset: err=%v dropped=%d", p.Err(), p.dropped)
	}
	if tm.Pending() || p.expired != 0 {
		t.Errorf("timer survived Reset: pending=%v expired=%b", tm.Pending(), p.expired)
	}
	got = got[:0]
	e.Deliver(p, 2, keyPing, ping{42})
	if len(got) != 1 || got[0] != 42 {
		t.Errorf("program broken after Reset: got %v", got)
	}
	tm.Set(time.Millisecond)
	if !tm.Pending() {
		t.Errorf("timer unusable after Reset")
	}
}

// TestTimeoutLimit: a program's timers are the bits of one word, so the
// 65th Timeout panics and the 64 before it do not.
func TestTimeoutLimit(t *testing.T) {
	prog := NewProgram[*node]()
	for i := 0; i < 64; i++ {
		if id := prog.Timeout("t", func(*node) {}); id != TimerID(i) {
			t.Fatalf("timer %d got id %d", i, id)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("65th Timeout did not panic")
		}
	}()
	prog.Timeout("one too many", func(*node) {})
}

// TestTimerCommandsClearOwnExpiryBit: Set, Stop and the process Reset each
// clear an expired flag not yet consumed, and Set and Stop leave the other
// timers' flags alone. With 64 timers the last one owns the word's top
// bit.
func TestTimerCommandsClearOwnExpiryBit(t *testing.T) {
	prog := NewProgram[*node]()
	var ids []TimerID
	for i := 0; i < 64; i++ {
		ids = append(ids, prog.Timeout("t", func(*node) {}))
	}
	sim := des.New()
	p := newProcess(NewEngine(sim, prog), 1, &node{})
	const all = ^uint64(0)
	for _, id := range []TimerID{ids[0], ids[5], ids[63]} {
		bit := uint64(1) << id
		for _, tc := range []struct {
			name string
			cmd  func(tm *Timer[*node])
		}{
			{"Set", func(tm *Timer[*node]) { tm.Set(time.Second) }},
			{"Stop", func(tm *Timer[*node]) { tm.Stop() }},
		} {
			p.expired = all
			tc.cmd(p.Timer(id))
			if p.expired != all&^bit {
				t.Errorf("%s on timer %d: expired = %064b, want every bit but %d", tc.name, id, p.expired, id)
			}
		}
	}
	p.Timer(ids[63]).Stop()
	p.expired = all
	p.Reset()
	if p.expired != 0 {
		t.Errorf("Reset left expired = %b", p.expired)
	}
}

// TestTimerFiringSetsAndConsumesBit: a timer's expiry sets its bit and its
// timeout action consumes it in the same stimulus; a second timer's bit is
// untouched.
func TestTimerFiringSetsAndConsumesBit(t *testing.T) {
	prog := NewProgram[*node]()
	sim := des.New()
	var p *Process[*node]
	var seen []uint64
	prog.Guard("peek", func(*node) bool { seen = append(seen, p.expired); return false }, func(*node) {})
	first := prog.Timeout("first", func(*node) {})
	second := prog.Timeout("second", func(*node) {})
	p = newProcess(NewEngine(sim, prog), 1, &node{})
	p.Timer(second).Set(time.Second)
	p.Timer(first).Set(time.Second)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Each expiry: peek sees the bit, the timeout consumes it, peek sees
	// the word clear again before quiescence.
	want := []uint64{1 << second, 0, 1 << first, 0}
	if len(seen) != len(want) {
		t.Fatalf("peeked %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("peeked %v, want %v", seen, want)
		}
	}
}

// TestDeliverAllocFree: a delivery runs its receive action and the action
// loop with no allocation, whether a guard then fires or not.
func TestDeliverAllocFree(t *testing.T) {
	prog := NewProgram[*node]()
	fire := false
	prog.Receive(keyPing, "rcv", func(_ *node, _ topo.NodeID, m Message) { fire = m.(*ping).n > 0 })
	prog.Guard("g", func(*node) bool { return fire }, func(*node) { fire = false })
	prog.Timeout("tick", func(*node) {}) // a timeout the loop tests and skips
	e := NewEngine(des.New(), prog)
	p := newProcess(e, 1, &node{})
	on, off := &ping{1}, &ping{0}
	if allocs := testing.AllocsPerRun(1000, func() {
		e.Deliver(p, 2, keyPing, on)
		e.Deliver(p, 2, keyPing, off)
		e.Deliver(p, 2, keyPong, on)
	}); allocs != 0 {
		t.Errorf("Deliver allocates %.1f/op, want 0", allocs)
	}
	if p.Err() != nil || p.dropped == 0 {
		t.Errorf("err = %v dropped = %d", p.Err(), p.dropped)
	}
}
