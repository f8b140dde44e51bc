package gcn

import (
	"testing"
	"time"

	"slpdas/internal/des"
	"slpdas/internal/topo"
)

// TestFailStopsComputation: a crashed process executes no actions — not
// for expired or armed timers, not for newly delivered frames — until
// Revive.
func TestFailStopsComputation(t *testing.T) {
	sim := des.New()
	prog := NewProgram[*node]()
	handled := 0
	prog.Receive(0, "rcv", func(*node, topo.NodeID, Message) { handled++ })
	fired := 0
	tick := prog.Timeout("tick", func(*node) { fired++ })
	e := NewEngine(sim, prog)
	p := newProcess(e, 1, &node{})
	tm := p.Timer(tick)

	// Arm the timer, mark it expired without stimulating, then crash.
	tm.Set(time.Second)
	p.expired = 1 << tick
	p.Fail()

	if !p.Dead() {
		t.Fatal("Dead() false after Fail")
	}
	if p.expired != 0 {
		t.Errorf("expired = %b after Fail, want 0 (volatile state dies)", p.expired)
	}
	if tm.Pending() {
		t.Error("timer still armed after Fail")
	}

	e.Deliver(p, 2, 0, "while dead")
	if p.dropped != 0 {
		t.Errorf("dead process counted %d drops", p.dropped)
	}
	e.Kickstart(p)
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if handled != 0 || fired != 0 {
		t.Errorf("dead process ran actions: handled=%d fired=%d", handled, fired)
	}
}

// TestReviveRestartsProcess: after Revive the process handles traffic
// again, keeping nothing delivered while it was down, like a reboot.
func TestReviveRestartsProcess(t *testing.T) {
	prog := NewProgram[*node]()
	handled := 0
	prog.Receive(0, "rcv", func(*node, topo.NodeID, Message) { handled++ })
	e := NewEngine(des.New(), prog)
	p := newProcess(e, 1, &node{})

	p.Fail()
	e.Deliver(p, 2, 0, "lost")
	p.Revive()
	if p.Dead() {
		t.Fatal("Dead() true after Revive")
	}
	e.Deliver(p, 2, 0, "heard")
	if handled != 1 {
		t.Errorf("handled %d messages after Revive, want exactly the post-revival one", handled)
	}
}

// TestResetClearsDead: dead is run state and must not leak through the
// arena Reset path.
func TestResetClearsDead(t *testing.T) {
	prog := NewProgram[*node]()
	prog.Receive(0, "rcv", func(*node, topo.NodeID, Message) {})
	e := NewEngine(des.New(), prog)
	p := newProcess(e, 1, &node{})
	p.Fail()
	e.Reset()
	if p.Dead() {
		t.Error("dead flag survived Reset")
	}
}

// TestFailInsideOwnActionStops: a command that crashes its own process —
// a broadcast that drains the battery — ends the action loop there, even
// though a guard of the dead process is still enabled.
func TestFailInsideOwnActionStops(t *testing.T) {
	prog := NewProgram[*node]()
	var p *Process[*node]
	prog.Receive(0, "rcv", func(*node, topo.NodeID, Message) { p.Fail() })
	ran := 0
	prog.Guard("enabled", func(*node) bool { return true }, func(*node) { ran++ })
	e := NewEngine(des.New(), prog)
	p = newProcess(e, 1, &node{})

	e.Deliver(p, 2, 0, "last words")
	if !p.Dead() {
		t.Fatal("receive action did not crash its process")
	}
	if ran != 0 {
		t.Errorf("dead process ran its enabled guard %d times", ran)
	}
	if err := p.Err(); err != nil {
		t.Errorf("crash inside an action failed the process: %v", err)
	}
}
