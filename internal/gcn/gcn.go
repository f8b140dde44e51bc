// Package gcn is a small runtime for programs written in the guarded
// command notation of Section III-A of the paper (after Dijkstra, 1974):
// actions of the form ⟨name⟩ :: ⟨guard⟩ → ⟨command⟩, rcv(sender, msg)
// guards on the messages delivered to a process, and timeout(timer)
// guards driven by the discrete-event simulator. The DAS, NSearch and
// SRefine protocols of Figures 2–4 are expressed as gcn programs.
//
// A Program is built once and shared by every process of an engine: its
// actions are functions of a per-process context C (the protocol node),
// so a process holds only its timers, their expiry bits and that context.
// Receive actions are keyed: the deliverer names a message's key, a small
// integer, and the action registered for that key, found by one table
// lookup, handles it. A message whose key has no receive action is dropped
// (and counted).
// Timers are des.Runners, so arming one allocates nothing.
//
// Execution semantics: whenever a process is stimulated (message delivery
// or timer expiry) it runs to quiescence, executing the first enabled
// timeout or guarded action in declaration order until none is enabled. A
// delivery runs its receive action at once, as the first step of that
// run. The paper's FIFO channel variable therefore needs no queue: every
// stimulus runs its process to quiescence before the simulator moves on,
// and no action delivers to its own process, so a message never arrives
// while an earlier one waits, and the channel holds at most the message
// being received. A per-stimulus step budget guards against
// non-terminating programs.
package gcn

import (
	"errors"
	"fmt"
	"time"

	"slpdas/internal/des"
	"slpdas/internal/topo"
)

// ErrStepBudget indicates a process failed to quiesce within its step
// budget — a protocol bug (e.g. two actions enabling each other forever).
var ErrStepBudget = errors.New("gcn: step budget exhausted; process did not quiesce")

// Message is an opaque protocol payload.
type Message any

// TimerID names a timer of a Program; Process.Timer resolves it to the
// process's own instance.
type TimerID int

// receive is a receive action rcv⟨key⟩ → handle.
type receive[C any] struct {
	name   string
	handle func(ctx C, sender topo.NodeID, msg Message)
}

// action is a guarded action (guard non-nil) or a timeout(timer) action.
type action[C any] struct {
	name    string
	guard   func(ctx C) bool
	timer   TimerID
	command func(ctx C)
}

// Program is a guarded-command program over a per-process context C:
// keyed receive actions plus timeout and guarded actions in declaration
// priority order. Build it once, before the first process runs it; it is
// read-only afterwards and may be shared across engines and goroutines.
type Program[C any] struct {
	recv    []receive[C] // indexed by key; a nil handle is no action
	actions []action[C]
	timers  int
}

// maxTimers is the number of timers a program may declare: a process
// keeps their expiry flags as the bits of one word.
const maxTimers = 64

// NewProgram creates an empty program.
func NewProgram[C any]() *Program[C] {
	return &Program[C]{}
}

// Receive registers the receive action for messages delivered with key.
// Each key has at most one action.
func (g *Program[C]) Receive(key int, name string, handle func(ctx C, sender topo.NodeID, msg Message)) {
	if key < 0 {
		panic(fmt.Sprintf("gcn: receive action %q on negative key %d", name, key))
	}
	for len(g.recv) <= key {
		g.recv = append(g.recv, receive[C]{})
	}
	if g.recv[key].handle != nil {
		panic(fmt.Sprintf("gcn: receive actions %q and %q share key %d", g.recv[key].name, name, key))
	}
	g.recv[key] = receive[C]{name: name, handle: handle}
}

// Guard appends a plain guarded action: when guard(ctx) is true and no
// earlier action is enabled, command(ctx) runs.
func (g *Program[C]) Guard(name string, guard func(ctx C) bool, command func(ctx C)) {
	g.actions = append(g.actions, action[C]{name: name, guard: guard, command: command})
}

// Timeout declares a timer and appends its timeout(timer) → command
// action. The expired flag is consumed (cleared) when the action runs; the
// command may re-arm the timer with Set. A program declares at most 64
// timers; Timeout panics on the 65th.
func (g *Program[C]) Timeout(name string, command func(ctx C)) TimerID {
	if g.timers == maxTimers {
		panic(fmt.Sprintf("gcn: timeout action %q declares timer %d; a program has at most %d", name, g.timers+1, maxTimers))
	}
	id := TimerID(g.timers)
	g.timers++
	g.actions = append(g.actions, action[C]{name: name, timer: id, command: command})
	return id
}

// Timer is one process's instance of a program timer. Set schedules the
// timer itself as the expiry event; when it fires, the owning process is
// stimulated and the associated timeout action's guard becomes true. The
// expired flag is the timer's bit in its process's expired word, so the
// action loop tests every timeout guard without reading a Timer.
type Timer[C any] struct {
	proc  *Process[C]
	event des.Event
	bit   uint64 // 1 << the timer's TimerID
}

// Set (re-)arms the timer to fire after d, cancelling any pending expiry.
// This is the set(timer, value) command of the paper.
//
//slp:hotpath
func (t *Timer[C]) Set(d time.Duration) {
	t.event.Cancel()
	t.proc.expired &^= t.bit
	t.event = t.proc.engine.sim.ScheduleRunnerAfter(d, t)
}

// Run is the expiry event (des.Runner).
//
//slp:hotpath
func (t *Timer[C]) Run() {
	// Clear the handle before stimulating: a fired event is no longer
	// armed, and the zero handle keeps Pending() honest.
	t.event = des.Event{}
	p := t.proc
	p.expired |= t.bit
	p.engine.stimulate(p, 0)
}

// Stop cancels the timer without expiring it.
func (t *Timer[C]) Stop() {
	t.event.Cancel()
	t.event = des.Event{}
	t.proc.expired &^= t.bit
}

// Pending reports whether the timer is armed and counting down.
func (t *Timer[C]) Pending() bool { return t.event.Pending() }

// Process is a GCN process: the engine's program run on one context, with
// the program's timers. Engine.Host sets one up. The fields a delivery
// reads come first, so a process that is a field of its context shares
// that context's first cache lines with it.
type Process[C any] struct {
	// dead marks a crashed process (fault injection): it executes no
	// actions and accepts no messages until Revive.
	dead   bool
	failed error
	// expired holds the expiry flag of program timer i as bit i.
	expired uint64
	ctx     C           // lint:immutable: the context the program runs on, fixed at construction
	engine  *Engine[C]  // lint:immutable: back-pointer wiring, fixed at construction
	id      topo.NodeID // lint:immutable: identity, fixed at construction
	timers  []Timer[C]  // one per program timer
	// dropped counts delivered messages no receive action handles.
	dropped uint64
}

// ID returns the process identifier.
func (p *Process[C]) ID() topo.NodeID { return p.id }

// Timer returns the process's instance of program timer id.
func (p *Process[C]) Timer(id TimerID) *Timer[C] { return &p.timers[id] }

// Err returns the sticky error if the process overran its step budget.
func (p *Process[C]) Err() error { return p.failed }

// Fail crashes the process: every timer is disarmed, and until Revive it
// executes no actions and silently drops anything Delivered to it.
// Volatile state dies with the node; the program — in ROM — survives for
// a later Revive.
func (p *Process[C]) Fail() {
	p.dead = true
	for i := range p.timers {
		p.timers[i].Stop()
	}
}

// Revive clears the dead flag set by Fail. The caller is responsible for
// re-initialising protocol state and re-stimulating the process; the
// runtime restarts it with no armed or expired timers, like a node
// rebooting from ROM.
func (p *Process[C]) Revive() { p.dead = false }

// Reset rewinds the process for a fresh run: drop/failure accounting is
// cleared and every timer disarmed. The owning simulator must be Reset
// alongside (stale timer events are discarded there; handles here are
// zeroed to match).
func (p *Process[C]) Reset() {
	p.dropped = 0
	p.failed = nil
	p.dead = false
	p.expired = 0
	for i := range p.timers {
		p.timers[i].event = des.Event{}
	}
}

// Engine runs one program's processes on a simulator.
type Engine[C any] struct {
	sim        *des.Simulator // lint:immutable: simulator wiring, fixed at construction
	prog       *Program[C]    // lint:immutable: the shared program, fixed at construction
	stepBudget int            // lint:immutable: defaultStepBudget; tests lower it
	// OnAction, when non-nil, is invoked before every executed action —
	// a tracing hook used by tests and the debug tooling.
	// lint:immutable: observer hook owned by the caller, not run state
	OnAction func(p *Process[C], actionName string)
	procs    []*Process[C] // lint:immutable: slice header fixed; processes reset individually
}

// defaultStepBudget bounds the actions one process executes per stimulus.
const defaultStepBudget = 10000

// NewEngine creates an engine running prog.
func NewEngine[C any](sim *des.Simulator, prog *Program[C]) *Engine[C] {
	return &Engine[C]{sim: sim, prog: prog, stepBudget: defaultStepBudget}
}

// Host makes p, whatever it held, a process running the engine's program
// on ctx. Typically p is a field of ctx itself, which keeps a process and
// its context in the same cache lines.
func (e *Engine[C]) Host(p *Process[C], id topo.NodeID, ctx C) {
	*p = Process[C]{id: id, engine: e, ctx: ctx, timers: make([]Timer[C], e.prog.timers)}
	for i := range p.timers {
		p.timers[i].proc = p
		p.timers[i].bit = 1 << i
	}
	e.procs = append(e.procs, p)
}

// Deliver hands msg from sender to p under key: the receive action
// registered for key runs at once, reported to OnAction first, and p then
// runs to quiescence. Receiving counts as the first step of the budget,
// as does a message no receive action handles, which is dropped and
// counted. A dead or failed process drops the delivery uncounted. This is
// how the radio hands received frames to a protocol.
//
//slp:hotpath
func (e *Engine[C]) Deliver(p *Process[C], sender topo.NodeID, key int, msg Message) {
	if p.dead || p.failed != nil {
		return
	}
	if g := e.prog; uint(key) < uint(len(g.recv)) && g.recv[key].handle != nil {
		r := &g.recv[key]
		if e.OnAction != nil {
			e.OnAction(p, r.name)
		}
		r.handle(p.ctx, sender, msg)
	} else {
		// No receive action for this key: the message is lost, mirroring
		// an unhandled frame in a real stack.
		p.dropped++
	}
	e.stimulate(p, 1)
}

// Kickstart runs p to quiescence with no new stimulus — used once at boot
// so that initially-enabled actions (e.g. the sink's init) execute.
func (e *Engine[C]) Kickstart(p *Process[C]) { e.stimulate(p, 0) }

// Reset rewinds every hosted process (see Process.Reset) for a fresh run
// on a Reset simulator. Processes, the program and the OnAction hook
// survive; only per-run timer/failure state is cleared.
func (e *Engine[C]) Reset() {
	for _, p := range e.procs {
		p.Reset()
	}
}

// Err returns the first process error encountered, if any.
func (e *Engine[C]) Err() error {
	for _, p := range e.procs {
		if p.failed != nil {
			return p.failed
		}
	}
	return nil
}

// stimulate runs the process action loop until quiescence, or until an
// action crashes its own process (a broadcast that drains the battery),
// having already spent steps of the step budget.
//
//slp:hotpath
func (e *Engine[C]) stimulate(p *Process[C], steps int) {
	for ; p.failed == nil && !p.dead; steps++ {
		if steps >= e.stepBudget {
			//lint:ignore hotpath cold failure path, the process is dead after this
			p.failed = fmt.Errorf("%w (process %d, budget %d)", ErrStepBudget, p.id, e.stepBudget)
			return
		}
		if !e.stepOnce(p) {
			return
		}
	}
}

// stepOnce executes the first enabled timeout or guarded action in
// declaration order; reports whether one ran.
//
//slp:hotpath
func (e *Engine[C]) stepOnce(p *Process[C]) bool {
	g := e.prog
	for i := range g.actions {
		a := &g.actions[i]
		if a.guard == nil {
			bit := uint64(1) << a.timer
			if p.expired&bit == 0 {
				continue
			}
			p.expired &^= bit // consume
		} else if !a.guard(p.ctx) {
			continue
		}
		if e.OnAction != nil {
			e.OnAction(p, a.name)
		}
		a.command(p.ctx)
		return true
	}
	return false
}
