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

// byType keys pings and pongs apart; anything else has no key.
func byType(m Message) int {
	switch m.(type) {
	case ping:
		return keyPing
	case pong:
		return keyPong
	}
	return -1
}

// oneKey gives every message the same key, like a receive action whose
// pattern matches everything.
func oneKey(Message) int { return 0 }

// newProcess hosts a process of its own on c.
// queueLen is the number of undelivered messages in p's channel.
func queueLen[C any](p *Process[C]) int { return len(p.inbox) - p.inboxHead }

func newProcess(e *Engine[*node], id topo.NodeID, c *node) *Process[*node] {
	p := new(Process[*node])
	e.Host(p, id, c)
	return p
}

func TestReceiveActionDispatchesByKey(t *testing.T) {
	prog := NewProgram[*node](byType)
	var pings, pongs []int
	prog.Receive(keyPing, "rcvPing", func(_ *node, _ topo.NodeID, m Message) { pings = append(pings, m.(ping).n) })
	prog.Receive(keyPong, "rcvPong", func(_ *node, _ topo.NodeID, m Message) { pongs = append(pongs, m.(pong).n) })
	e := NewEngine(des.New(), prog)
	p := newProcess(e, 1, &node{})

	e.Deliver(p, 2, ping{1})
	e.Deliver(p, 2, pong{2})
	e.Deliver(p, 2, ping{3})
	if len(pings) != 2 || pings[0] != 1 || pings[1] != 3 {
		t.Errorf("pings = %v", pings)
	}
	if len(pongs) != 1 || pongs[0] != 2 {
		t.Errorf("pongs = %v", pongs)
	}
}

func TestUnmatchedMessageDropped(t *testing.T) {
	prog := NewProgram[*node](byType)
	prog.Receive(keyPing, "rcvPing", func(*node, topo.NodeID, Message) {})
	e := NewEngine(des.New(), prog)
	p := newProcess(e, 1, &node{})
	e.Deliver(p, 2, pong{9}) // key past the receive table
	if p.dropped != 1 {
		t.Errorf("dropped = %d, want 1", p.dropped)
	}
	if queueLen(p) != 0 {
		t.Errorf("queue = %d, want 0", queueLen(p))
	}
	e.Deliver(p, 2, "neither") // negative key
	if p.dropped != 2 || queueLen(p) != 0 {
		t.Errorf("dropped = %d queue = %d, want 2 and 0", p.dropped, queueLen(p))
	}
}

func TestReceiveKeyHoldsOneAction(t *testing.T) {
	prog := NewProgram[*node](byType)
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
	e.Deliver(p, 2, ping{1})
	if p.dropped != 1 {
		t.Errorf("dropped = %d, want 1 for a key with no action", p.dropped)
	}
}

func TestUnmatchedFloodChargesStepBudget(t *testing.T) {
	// Regression: the drop loop in stepOnce used to consume every unmatched
	// inbox entry inside a single budgeted step, so a flood of garbage
	// frames bypassed the step budget entirely. Dropping now costs one step
	// per message: a flood larger than the budget must trip ErrStepBudget.
	prog := NewProgram[*node](byType)
	prog.Receive(keyPing, "rcvPing", func(*node, topo.NodeID, Message) {})
	e := NewEngine(des.New(), prog)
	e.stepBudget = 50
	p := newProcess(e, 1, &node{})
	// Enqueue the flood directly, then stimulate once so every drop lands
	// in the same budgeted run-to-quiescence.
	for i := 0; i < 60; i++ {
		p.inbox = append(p.inbox, envelope{sender: 2, msg: pong{i}})
	}
	e.Kickstart(p)
	if !errors.Is(p.Err(), ErrStepBudget) {
		t.Errorf("Err = %v, want ErrStepBudget (60 unmatched drops vs budget 50)", p.Err())
	}
	if p.dropped != 50 {
		t.Errorf("dropped = %d, want 50 (one drop per budgeted step)", p.dropped)
	}
	// A flood within budget drains cleanly, still counting every drop.
	e2 := NewEngine(des.New(), prog)
	e2.stepBudget = 50
	p2 := newProcess(e2, 1, &node{})
	for i := 0; i < 40; i++ {
		p2.inbox = append(p2.inbox, envelope{sender: 2, msg: pong{i}})
	}
	e2.Kickstart(p2)
	if p2.Err() != nil {
		t.Errorf("Err = %v, want nil for a flood within budget", p2.Err())
	}
	if p2.dropped != 40 || queueLen(p2) != 0 {
		t.Errorf("dropped = %d queue = %d, want 40 drained", p2.dropped, queueLen(p2))
	}
}

func TestChannelFIFO(t *testing.T) {
	prog := NewProgram[*node](oneKey)
	e := NewEngine(des.New(), prog)
	var p *Process[*node]
	var got []int
	var deferDelivery bool
	prog.Receive(0, "rcv", func(_ *node, _ topo.NodeID, m Message) {
		got = append(got, m.(ping).n)
		if !deferDelivery {
			deferDelivery = true
			// Re-entrant sends from within a handler must keep FIFO order.
			p.inbox = append(p.inbox, envelope{sender: 5, msg: ping{99}})
		}
	})
	p = newProcess(e, 1, &node{})
	e.Deliver(p, 2, ping{1})
	e.Deliver(p, 2, ping{2})
	want := []int{1, 99, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestGuardActionRunsAfterChannelDrains(t *testing.T) {
	// Models Figure 2's "process:: rcv⟨⟩" action: runs only once the
	// channel has been fully consumed.
	prog := NewProgram[*node](oneKey)
	e := NewEngine(des.New(), prog)
	var p *Process[*node]
	received := 0
	processed := false
	prog.Receive(0, "rcv", func(*node, topo.NodeID, Message) { received++ })
	prog.Guard("process", func(*node) bool { return received >= 2 && !processed }, func(*node) {
		if queueLen(p) != 0 {
			t.Error("guard ran with non-empty channel")
		}
		processed = true
	})
	p = newProcess(e, 1, &node{})
	e.Deliver(p, 2, ping{1})
	if processed {
		t.Fatal("guard fired before its condition held")
	}
	e.Deliver(p, 2, ping{2})
	if !processed {
		t.Fatal("guard did not fire after condition held")
	}
}

func TestActionPriorityOrder(t *testing.T) {
	prog := NewProgram[*node](oneKey)
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
	prog := NewProgram[*node](oneKey)
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
	prog := NewProgram[*node](oneKey)
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
	prog := NewProgram[*node](oneKey)
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
	prog := NewProgram[*node](oneKey)
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
	prog := NewProgram[*node](oneKey)
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
	// A failed process ignores further stimuli instead of looping again.
	e.Deliver(p, 2, ping{1})
	if queueLen(p) != 1 {
		t.Errorf("failed process consumed a message")
	}
}

func TestOnActionTracingHook(t *testing.T) {
	prog := NewProgram[*node](oneKey)
	ran := false
	prog.Receive(0, "rcv", func(*node, topo.NodeID, Message) {})
	prog.Guard("g", func(*node) bool { return !ran }, func(*node) { ran = true })
	e := NewEngine(des.New(), prog)
	var names []string
	e.OnAction = func(_ *Process[*node], name string) { names = append(names, name) }
	e.Deliver(newProcess(e, 1, &node{}), 2, ping{1})
	if len(names) != 2 || names[0] != "rcv" || names[1] != "g" {
		t.Errorf("traced actions = %v, want [rcv g]", names)
	}
}

func TestTwoProcessExchange(t *testing.T) {
	// A deterministic two-process token exchange over one shared program:
	// each process forwards the token to the peer its own context names,
	// with an incremented count, until it reaches 10.
	sim := des.New()
	prog := NewProgram[*node](oneKey)
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
			e.Deliver(peer, from, ping{n + 1})
		})
	})
	for i := range procs {
		procs[i] = newProcess(e, topo.NodeID(i), &node{peer: 1 - i})
	}
	sim.ScheduleAfter(0, func() { e.Deliver(procs[0], 1, ping{0}) })
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
	prog := NewProgram[*node](oneKey)
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
	prog := NewProgram[*node](oneKey)
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
	prog := NewProgram[*node](oneKey)
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
	e := NewEngine(des.New(), NewProgram[*node](oneKey))
	p := newProcess(e, 42, &node{})
	if p.ID() != 42 {
		t.Errorf("ID = %d, want 42", p.ID())
	}
}

// TestEngineResetRewindsProcesses: Reset empties channels, clears drop and
// failure accounting and disarms timers, while the installed program and
// the engine's simulator keep working for the next run.
func TestEngineResetRewindsProcesses(t *testing.T) {
	sim := des.New()
	prog := NewProgram[*node](byType)
	var got []int
	prog.Receive(keyPing, "ping", func(_ *node, _ topo.NodeID, m Message) {
		got = append(got, m.(ping).n)
	})
	tick := prog.Timeout("tick", func(*node) {})
	e := NewEngine(sim, prog)
	e.stepBudget = 5
	p := newProcess(e, 1, &node{})
	tm := p.Timer(tick)
	tm.Set(time.Second)

	e.Deliver(p, 2, ping{1})
	e.Deliver(p, 2, pong{9}) // dropped: no receive action for its key
	for i := 0; i < 10; i++ {
		p.inbox = append(p.inbox, envelope{sender: 2, msg: ping{i}})
	}
	e.stimulate(p) // overruns the 5-step budget → failed
	if p.Err() == nil {
		t.Fatal("expected step-budget failure before reset")
	}

	sim.Reset()
	e.Reset()
	if p.Err() != nil || p.dropped != 0 || queueLen(p) != 0 {
		t.Errorf("after Reset: err=%v dropped=%d queue=%d", p.Err(), p.dropped, queueLen(p))
	}
	if tm.Pending() || tm.expired {
		t.Errorf("timer survived Reset: pending=%v expired=%v", tm.Pending(), tm.expired)
	}
	got = got[:0]
	e.Deliver(p, 2, ping{42})
	if len(got) != 1 || got[0] != 42 {
		t.Errorf("program broken after Reset: got %v", got)
	}
	tm.Set(time.Millisecond)
	if !tm.Pending() {
		t.Errorf("timer unusable after Reset")
	}
}
