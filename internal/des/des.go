// Package des is a deterministic discrete-event simulator: the substrate
// replacing TOSSIM in the paper's evaluation. Events are executed in
// strictly non-decreasing virtual-time order; events scheduled for the same
// instant run in FIFO order of scheduling, so a run is a pure function of
// its inputs.
//
// The scheduler is built for steady-state zero allocation: the pending
// queue is a 4-ary implicit heap of small value entries, and event bodies
// live in a free list of recycled boxes, so once the simulation reaches its
// working-set size, Schedule/ScheduleRunner allocate nothing. Hot paths
// that would otherwise allocate a closure per event (the radio frame
// path, the TDMA slot tasks, the GCN timers) schedule a pre-allocated
// Runner instead.
package des

import (
	"errors"
	"fmt"
	"time"
)

// Common simulator errors.
var (
	// ErrPastEvent is returned when an event is scheduled before Now().
	ErrPastEvent = errors.New("des: event scheduled in the past")
	// ErrEventBudget is returned when the run exceeds its event budget,
	// which indicates a runaway protocol (e.g. a dissemination loop).
	// The budget is checked before the next event is dequeued, so the
	// simulator state stays consistent: the clock is not advanced, the
	// event is still queued, and a later Run (after SetEventBudget) resumes
	// without losing it.
	ErrEventBudget = errors.New("des: event budget exhausted")
)

// Runner is a pre-allocated event body. Hot paths implement Runner on a
// pooled struct and schedule it with ScheduleRunner to avoid the closure
// allocation a func() event would cost per occurrence.
type Runner interface {
	Run()
}

// eventBox holds a scheduled event's body. Boxes are recycled through the
// simulator's free list; gen distinguishes incarnations so a stale Event
// handle (kept after its event executed) can never affect the box's next
// occupant.
type eventBox struct {
	fn        func()
	run       Runner
	gen       uint64 // lint:immutable: incarnation counter, must survive reset to invalidate stale handles
	cancelled bool
}

func (b *eventBox) reset() {
	b.fn = nil
	b.run = nil
	b.cancelled = false
}

// Event is a handle to a scheduled callback, valid across the event's whole
// lifetime: cancelling an already-executed or already-cancelled event is a
// no-op, even after the simulator has recycled the underlying storage. The
// zero Event is inert.
type Event struct {
	box *eventBox
	gen uint64
	at  time.Duration
}

// Time returns the virtual time the event is scheduled for.
func (e Event) Time() time.Duration { return e.at }

// Cancel prevents the callback from running. Safe to call multiple times,
// and a no-op once the event has executed.
func (e Event) Cancel() {
	if e.box != nil && e.box.gen == e.gen {
		e.box.cancelled = true
	}
}

// Cancelled reports whether the event was cancelled before executing.
func (e Event) Cancelled() bool {
	return e.box != nil && e.box.gen == e.gen && e.box.cancelled
}

// Pending reports whether the event is still queued: scheduled, not yet
// executed and not cancelled. The zero Event is not pending.
func (e Event) Pending() bool {
	return e.box != nil && e.box.gen == e.gen && !e.box.cancelled
}

// entry is one pending event in the queue. The sort keys are inline so
// heap sifting never chases the box pointer.
type entry struct {
	at  time.Duration
	seq uint64
	box *eventBox
}

func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Simulator owns the virtual clock and the pending event queue. The zero
// value is not usable; construct with New.
type Simulator struct {
	now       time.Duration
	queue     []entry // 4-ary implicit min-heap on (at, seq)
	free      []*eventBox
	seq       uint64
	executed  uint64
	maxEvents uint64 // lint:immutable: configured budget, set by SetEventBudget
	stopped   bool
}

// New constructs an empty simulator at virtual time zero with no event
// budget (see SetEventBudget).
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Executed returns the number of events executed so far, including the
// extra events batched bodies reported through CountExecuted.
func (s *Simulator) Executed() uint64 { return s.executed }

// CountExecuted charges n more executed events to the running event. A
// Runner that does the work of several events in one body (the radio runs
// a broadcast's whole fan-out as one frame event) reports the extra ones
// here, so Executed and the event budget keep counting the same work. The
// budget is checked between events, so a batched event runs whole and
// may leave Executed up to its weight past the budget.
//
//slp:hotpath
func (s *Simulator) CountExecuted(n uint64) { s.executed += n }

// Pending returns the number of events still queued (including cancelled
// ones not yet reaped).
func (s *Simulator) Pending() int { return len(s.queue) }

// SetEventBudget replaces the executed-event budget (zero = unlimited).
// Raising the budget after Run returned ErrEventBudget lets the simulation
// resume exactly where it stopped.
func (s *Simulator) SetEventBudget(n uint64) { s.maxEvents = n }

// Reset rewinds the simulator to virtual time zero with an empty queue,
// recycling every still-queued event box into the free list. A reset
// simulator is indistinguishable from a fresh New (same clock, sequence
// numbering and budget accounting) except that its internal pools stay
// warm — the point of reusing one simulator across arena runs. Event
// handles issued before the Reset become inert: never Pending, never able
// to cancel a recycled box's next occupant. Cancelled boxes are dropped
// without recycling, exactly as RunUntil reaps them, so Cancelled() keeps
// answering truthfully across resets. The event budget is preserved; use
// SetEventBudget to change it.
func (s *Simulator) Reset() {
	for i := range s.queue {
		b := s.queue[i].box
		s.queue[i] = entry{}
		if !b.cancelled {
			s.releaseBox(b)
		}
	}
	s.queue = s.queue[:0]
	s.now = 0
	s.seq = 0
	s.executed = 0
	s.stopped = false
}

// --- 4-ary heap ---
//
// A 4-ary implicit heap halves the tree depth of the binary heap the
// standard library's container/heap would maintain, trading slightly wider
// sift-down compares for far fewer cache-missing levels — a consistent win
// for event queues, which are pop-heavy. Entries are values, so growing
// the queue reuses slice capacity and steady-state push/pop allocates
// nothing.

//slp:hotpath
func (s *Simulator) heapPush(e entry) {
	s.queue = append(s.queue, e)
	i := len(s.queue) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s.queue[i].before(s.queue[parent]) {
			break
		}
		s.queue[i], s.queue[parent] = s.queue[parent], s.queue[i]
		i = parent
	}
}

//slp:hotpath
func (s *Simulator) heapPop() entry {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = entry{} // release the box pointer
	s.queue = q[:n]
	s.siftDown(0)
	return top
}

//slp:hotpath
func (s *Simulator) siftDown(i int) {
	q := s.queue
	n := len(q)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q[c].before(q[min]) {
				min = c
			}
		}
		if !q[min].before(q[i]) {
			return
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
}

// --- event pool ---

//slp:hotpath
func (s *Simulator) getBox() *eventBox {
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return b
	}
	return &eventBox{}
}

// releaseBox recycles an executed box. Cancelled boxes are deliberately
// not recycled (see RunUntil): their handles must keep reporting
// Cancelled() == true indefinitely.
//
//slp:hotpath
func (s *Simulator) releaseBox(b *eventBox) {
	b.gen++
	b.reset()
	s.free = append(s.free, b)
}

// schedule enqueues a box and returns its entry keys.
//
//slp:hotpath
func (s *Simulator) schedule(at time.Duration, b *eventBox) {
	s.heapPush(entry{at: at, seq: s.seq, box: b})
	s.seq++
}

// Schedule queues fn to run at absolute virtual time at. It returns the
// event handle, or an error if at is before the current time.
func (s *Simulator) Schedule(at time.Duration, fn func()) (Event, error) {
	if at < s.now {
		return Event{}, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, s.now)
	}
	b := s.getBox()
	b.fn = fn
	s.schedule(at, b)
	return Event{box: b, gen: b.gen, at: at}, nil
}

// ScheduleAfter queues fn to run d after the current time. Negative d is
// treated as zero.
func (s *Simulator) ScheduleAfter(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	e, err := s.Schedule(s.now+d, fn)
	if err != nil {
		// Unreachable: now+d >= now for d >= 0.
		panic(err)
	}
	return e
}

// ScheduleRunner queues r to run at absolute virtual time at. Together
// with the event pool, a pre-allocated r makes scheduling allocation-free.
//
//slp:hotpath
func (s *Simulator) ScheduleRunner(at time.Duration, r Runner) error {
	if at < s.now {
		//lint:ignore hotpath cold error path, only reached on caller bugs
		return fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, s.now)
	}
	b := s.getBox()
	b.run = r
	s.schedule(at, b)
	return nil
}

// ScheduleRunnerAfter queues r to run d after the current time and
// returns the event handle, which cancels it like a Schedule handle (the
// GCN timers re-arm this way). Negative d is treated as zero.
//
//slp:hotpath
func (s *Simulator) ScheduleRunnerAfter(d time.Duration, r Runner) Event {
	if d < 0 {
		d = 0
	}
	b := s.getBox()
	b.run = r
	s.schedule(s.now+d, b)
	return Event{box: b, gen: b.gen, at: s.now + d}
}

// Stop makes the current Run return after the in-flight event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events until the queue drains, Stop is called, or the event
// budget is exhausted.
func (s *Simulator) Run() error {
	return s.RunUntil(-1)
}

// RunUntil executes events with time at most deadline (deadline < 0 means
// no limit). Events scheduled exactly at the deadline are executed. On
// return the clock rests at the last executed event's time, or at the
// deadline if it was reached with events still pending beyond it.
func (s *Simulator) RunUntil(deadline time.Duration) error {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		next := s.queue[0]
		if next.box.cancelled {
			// Reap without touching the clock or the budget. The box is
			// not recycled so stale handles keep answering Cancelled().
			s.heapPop()
			continue
		}
		if deadline >= 0 && next.at > deadline {
			s.now = deadline
			return nil
		}
		// Budget check happens before the pop: on ErrEventBudget the event
		// stays queued and the clock stays put, so the simulator remains
		// consistent and resumable.
		if s.maxEvents > 0 && s.executed >= s.maxEvents {
			return fmt.Errorf("%w: budget=%d now=%v next=%v", ErrEventBudget, s.maxEvents, s.now, next.at)
		}
		s.heapPop()
		s.now = next.at
		s.executed++
		b := next.box
		fn, run := b.fn, b.run
		// Recycle before executing: the body may schedule follow-up events,
		// which can then reuse this box immediately.
		s.releaseBox(b)
		if run != nil {
			run.Run()
		} else {
			fn()
		}
	}
	if deadline >= 0 && s.now < deadline && len(s.queue) == 0 {
		// Queue drained before the deadline; advance the clock so callers
		// observing Now() see the full simulated horizon.
		s.now = deadline
	}
	return nil
}
