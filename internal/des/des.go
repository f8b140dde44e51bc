// Package des is a deterministic discrete-event simulator: the substrate
// replacing TOSSIM in the paper's evaluation. Events are executed in
// strictly non-decreasing virtual-time order; events scheduled for the same
// instant run in FIFO order of scheduling, so a run is a pure function of
// its inputs.
//
// The pending queue holds one bucket per distinct pending instant: a
// FIFO of event boxes linked through the boxes themselves. A 4-ary
// implicit min-heap holds each bucket's head, ordered by instant, and an
// open-addressing table maps each instant to its bucket's tail, where the
// next event for that instant is appended. Every event already in a
// bucket was scheduled before the one joining it, so FIFO within a bucket
// plus heap order between buckets is exactly (time, scheduling order): no
// sequence number is stored and none is needed to break ties, because no
// two buckets share an instant. The protocols run TDMA schedules whose
// events pile onto period boundaries and slot offsets, so the heap sorts a
// few dozen instants where it would otherwise sort hundreds of events, and
// a pop whose successor shares its instant replaces the heap's top in
// place without sifting.
//
// The scheduler is built for steady-state zero allocation: event bodies
// live in a free list of recycled boxes, and a bucket is nothing but its
// two ends, held in the heap and the index, so once the simulation reaches
// its working-set size, Schedule/ScheduleRunner allocate nothing. The slab
// rule: nothing is allocated per instant one at a time. Setup jitter
// scatters a fresh network's events over hundreds of distinct instants, so
// one allocation per instant would show in the allocation count of every
// run; per-instant state, if it is ever needed, comes from a pool filled in
// slabs. Hot paths that would otherwise allocate a closure per event (the
// radio frame path, the nodes' TDMA periods, the GCN timers) schedule a
// pre-allocated Runner instead.
package des

import (
	"errors"
	"fmt"
	"math/bits"
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
	next      *eventBox // the next event of the same instant, in scheduling order
	gen       uint64    // lint:immutable: incarnation counter, must survive reset to invalidate stale handles
	cancelled bool
}

func (b *eventBox) reset() {
	b.fn = nil
	b.run = nil
	b.next = nil
	b.cancelled = false
}

// Event is a handle to a scheduled callback, valid across the event's whole
// lifetime: cancelling an already-executed or already-cancelled event is a
// no-op, even after the simulator has recycled the underlying storage. The
// zero Event is inert.
type Event struct {
	box *eventBox
	gen uint64
}

// Cancel prevents the callback from running. Safe to call multiple times,
// and a no-op once the event has executed.
func (e Event) Cancel() {
	if e.box != nil && e.box.gen == e.gen {
		e.box.cancelled = true
	}
}

// Pending reports whether the event is still queued: scheduled, not yet
// executed and not cancelled. The zero Event is not pending.
func (e Event) Pending() bool {
	return e.box != nil && e.box.gen == e.gen && !e.box.cancelled
}

// instant is one distinct pending instant with one end of its bucket: the
// heap holds the head, the next event to run, and the index holds the
// tail. Keeping the key inline means heap sifting never chases the
// pointer; box == nil marks an empty index slot.
type instant struct {
	at  time.Duration
	box *eventBox
}

// Simulator owns the virtual clock and the pending event queue. The zero
// value is not usable; construct with New.
type Simulator struct {
	now       time.Duration
	heap      []instant // bucket heads: a 4-ary implicit min-heap on at
	index     []instant // bucket tails by at: linear probing, the length zero or a power of two
	pending   int       // queued events, cancelled ones not yet reaped included
	free      []*eventBox
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
func (s *Simulator) Pending() int { return s.pending }

// SetEventBudget replaces the executed-event budget (zero = unlimited).
// Raising the budget after Run returned ErrEventBudget lets the simulation
// resume exactly where it stopped.
func (s *Simulator) SetEventBudget(n uint64) { s.maxEvents = n }

// Reset rewinds the simulator to virtual time zero with an empty queue,
// recycling every still-queued event box into the free list. A reset
// simulator is indistinguishable from a fresh New (same clock, execution
// order and budget accounting) except that its internal pools stay warm
// (the boxes, and the heap's and the index's capacity) — the point of
// reusing one simulator across arena runs. Event handles issued before the Reset
// become inert: never Pending, never able to cancel a recycled box's next
// occupant. The event budget is preserved; use SetEventBudget to change it.
func (s *Simulator) Reset() {
	for i := range s.heap {
		for b := s.heap[i].box; b != nil; {
			next := b.next
			s.releaseBox(b)
			b = next
		}
	}
	clear(s.heap)
	s.heap = s.heap[:0]
	clear(s.index)
	s.pending = 0
	s.now = 0
	s.executed = 0
	s.stopped = false
}

// --- heap of bucket heads ---
//
// A 4-ary implicit heap halves the tree depth of the binary heap the
// standard library's container/heap would maintain, trading slightly wider
// sift-down compares for far fewer cache-missing levels. Elements are
// values, so growing the heap reuses slice capacity and steady-state
// push/pop allocates nothing. Instants are distinct, so at alone orders it.

//slp:hotpath
func (s *Simulator) heapPush(in instant) {
	s.heap = append(s.heap, in)
	q := s.heap
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if q[parent].at <= in.at {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = in
}

// heapPopTop removes the earliest bucket from the heap.
//
//slp:hotpath
func (s *Simulator) heapPopTop() {
	q := s.heap
	n := len(q) - 1
	last := q[n]
	q[n] = instant{} // release the box pointer
	q = q[:n]
	s.heap = q
	if n == 0 {
		return
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q[c].at < q[min].at {
				min = c
			}
		}
		if last.at <= q[min].at {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = last
}

// --- instant index ---
//
// Linear probing over a table kept at most half full, with Fibonacci
// hashing: instants are multiples of slot and period lengths, so their low
// bits carry little, and the multiply folds every bit into the top ones the
// slot is taken from. Deletion shifts later entries of the probe run back
// instead of leaving tombstones, so a long run never degrades the table.

// home returns the index slot an instant hashes to.
//
//slp:hotpath
func (s *Simulator) home(at time.Duration) int {
	shift := 65 - bits.Len(uint(len(s.index)))
	return int(uint64(at) * 0x9E3779B97F4A7C15 >> shift)
}

// unindex removes instant at, which must be indexed, from the index.
//
//slp:hotpath
func (s *Simulator) unindex(at time.Duration) {
	mask := len(s.index) - 1
	i := s.home(at)
	for s.index[i].at != at || s.index[i].box == nil {
		i = (i + 1) & mask
	}
	// Backward shift: an entry later in the probe run moves into the hole
	// when its home does not lie after the hole, so every entry stays
	// reachable from its home without a tombstone.
	for j := (i + 1) & mask; s.index[j].box != nil; j = (j + 1) & mask {
		if (j-s.home(s.index[j].at))&mask >= (j-i)&mask {
			s.index[i] = s.index[j]
			i = j
		}
	}
	s.index[i] = instant{}
}

// growIndex doubles the index and rehashes its entries. The table is sized
// by the peak count of distinct pending instants, so a warm simulator
// never grows it again.
func (s *Simulator) growIndex() {
	old := s.index
	n := 2 * len(old)
	if n < 64 {
		n = 64
	}
	s.index = make([]instant, n)
	mask := n - 1
	for _, in := range old {
		if in.box == nil {
			continue
		}
		i := s.home(in.at)
		for s.index[i].box != nil {
			i = (i + 1) & mask
		}
		s.index[i] = in
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

// releaseBox recycles an executed, reaped or discarded box. Bumping its
// generation leaves every handle to its old occupant inert.
//
//slp:hotpath
func (s *Simulator) releaseBox(b *eventBox) {
	b.gen++
	b.reset()
	s.free = append(s.free, b)
}

// schedule appends a box to the bucket of instant at, opening the bucket
// if no event is queued for at yet.
//
//slp:hotpath
func (s *Simulator) schedule(at time.Duration, b *eventBox) {
	s.pending++
	if 2*(len(s.heap)+1) > len(s.index) {
		s.growIndex()
	}
	mask := len(s.index) - 1
	i := s.home(at)
	for s.index[i].box != nil {
		if s.index[i].at == at {
			s.index[i].box.next = b
			s.index[i].box = b
			return
		}
		i = (i + 1) & mask
	}
	s.index[i] = instant{at: at, box: b}
	s.heapPush(instant{at: at, box: b})
}

// popHead dequeues the earliest pending event: the head of the earliest
// bucket. Its successor in the bucket becomes the heap's top in place; a
// bucket it empties leaves the heap and the index.
//
//slp:hotpath
func (s *Simulator) popHead() *eventBox {
	top := s.heap[0]
	b := top.box
	s.pending--
	if b.next != nil {
		s.heap[0].box = b.next
		b.next = nil
	} else {
		s.unindex(top.at)
		s.heapPopTop()
	}
	return b
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
	return Event{box: b, gen: b.gen}, nil
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
	return Event{box: b, gen: b.gen}
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
	for len(s.heap) > 0 && !s.stopped {
		at, b := s.heap[0].at, s.heap[0].box
		if b.cancelled {
			// Reap without touching the clock or the budget.
			s.popHead()
			s.releaseBox(b)
			continue
		}
		if deadline >= 0 && at > deadline {
			s.now = deadline
			return nil
		}
		// Budget check happens before the pop: on ErrEventBudget the event
		// stays queued and the clock stays put, so the simulator remains
		// consistent and resumable.
		if s.maxEvents > 0 && s.executed >= s.maxEvents {
			return fmt.Errorf("%w: budget=%d now=%v next=%v", ErrEventBudget, s.maxEvents, s.now, at)
		}
		s.popHead()
		s.now = at
		s.executed++
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
	if deadline >= 0 && s.now < deadline && len(s.heap) == 0 {
		// Queue drained before the deadline; advance the clock so callers
		// observing Now() see the full simulated horizon.
		s.now = deadline
	}
	return nil
}
