package des

import (
	"errors"
	"testing"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.ScheduleAfter(30*time.Millisecond, func() { order = append(order, 3) })
	s.ScheduleAfter(10*time.Millisecond, func() { order = append(order, 1) })
	s.ScheduleAfter(20*time.Millisecond, func() { order = append(order, 2) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v, want 30ms", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.ScheduleAfter(time.Second, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: order[%d]=%d", i, v)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var times []time.Duration
	s.ScheduleAfter(time.Second, func() {
		times = append(times, s.Now())
		s.ScheduleAfter(time.Second, func() {
			times = append(times, s.Now())
		})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Errorf("times = %v", times)
	}
}

func TestSchedulePastRejected(t *testing.T) {
	s := New()
	s.ScheduleAfter(time.Second, func() {
		if _, err := s.Schedule(500*time.Millisecond, func() {}); !errors.Is(err, ErrPastEvent) {
			t.Errorf("Schedule in past: err = %v, want ErrPastEvent", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	s := New()
	ran := false
	s.ScheduleAfter(time.Second, func() {
		s.ScheduleAfter(-time.Hour, func() { ran = true })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Error("negative-delay event did not run")
	}
}

func TestCancel(t *testing.T) {
	s := New()
	ran := false
	e := s.ScheduleAfter(time.Second, func() { ran = true })
	e.Cancel()
	e.Cancel() // idempotent
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Error("cancelled event ran")
	}
	if !e.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	s := New()
	ran := false
	later := s.ScheduleAfter(2*time.Second, func() { ran = true })
	s.ScheduleAfter(time.Second, func() { later.Cancel() })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Error("event cancelled mid-run still executed")
	}
}

func TestRunUntilDeadline(t *testing.T) {
	s := New()
	var ran []int
	s.ScheduleAfter(1*time.Second, func() { ran = append(ran, 1) })
	s.ScheduleAfter(2*time.Second, func() { ran = append(ran, 2) })
	s.ScheduleAfter(3*time.Second, func() { ran = append(ran, 3) })
	if err := s.RunUntil(2 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(ran) != 2 {
		t.Fatalf("ran = %v, want events 1,2 only", ran)
	}
	if s.Now() != 2*time.Second {
		t.Errorf("Now() = %v, want deadline 2s", s.Now())
	}
	// Resume to completion.
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ran) != 3 {
		t.Errorf("after resume ran = %v, want 3 events", ran)
	}
}

func TestRunUntilAdvancesClockWhenQueueDrains(t *testing.T) {
	s := New()
	s.ScheduleAfter(time.Second, func() {})
	if err := s.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if s.Now() != 10*time.Second {
		t.Errorf("Now() = %v, want 10s after drain", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	s.ScheduleAfter(time.Second, func() { count++; s.Stop() })
	s.ScheduleAfter(2*time.Second, func() { count++ })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 1 {
		t.Errorf("count = %d, want 1 (stopped after first event)", count)
	}
	// A subsequent Run resumes.
	if err := s.Run(); err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	if count != 2 {
		t.Errorf("count = %d after resume, want 2", count)
	}
}

func TestEventBudget(t *testing.T) {
	s := New()
	s.SetEventBudget(10)
	var boom func()
	boom = func() { s.ScheduleAfter(time.Millisecond, boom) }
	s.ScheduleAfter(0, boom)
	err := s.Run()
	if !errors.Is(err, ErrEventBudget) {
		t.Errorf("Run err = %v, want ErrEventBudget", err)
	}
	if s.Executed() != 10 {
		t.Errorf("Executed = %d, want 10", s.Executed())
	}
}

func TestEventBudgetLeavesSimulatorResumable(t *testing.T) {
	// Regression: the budget used to be checked after the next event was
	// popped and the clock advanced, so hitting the budget silently lost
	// one event and left the clock in its future. Exhausting the budget
	// must leave the next event queued and the clock on the last executed
	// event, so raising the budget resumes without losing anything.
	s := New()
	s.SetEventBudget(1)
	var ran []time.Duration
	s.ScheduleAfter(1*time.Second, func() { ran = append(ran, s.Now()) })
	s.ScheduleAfter(2*time.Second, func() { ran = append(ran, s.Now()) })
	if err := s.Run(); !errors.Is(err, ErrEventBudget) {
		t.Fatalf("Run err = %v, want ErrEventBudget", err)
	}
	if len(ran) != 1 || ran[0] != time.Second {
		t.Fatalf("ran = %v, want exactly the 1s event", ran)
	}
	if s.Now() != time.Second {
		t.Errorf("Now() = %v after budget stop, want 1s (clock must not advance past the last executed event)", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d after budget stop, want 1 (the 2s event must not be lost)", s.Pending())
	}
	s.SetEventBudget(0)
	if err := s.Run(); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if len(ran) != 2 || ran[1] != 2*time.Second {
		t.Errorf("after resume ran = %v, want the 2s event recovered", ran)
	}
}

// TestCountExecutedChargesBatchedWork: an event body that reports extra
// work through CountExecuted is charged for it in Executed and against the
// budget. The budget is checked between events, so the batched event runs
// whole, and the simulator stays resumable after it.
func TestCountExecutedChargesBatchedWork(t *testing.T) {
	s := New()
	s.SetEventBudget(5)
	var ran []time.Duration
	batch := func() { ran = append(ran, s.Now()); s.CountExecuted(3) }
	s.ScheduleAfter(1*time.Second, batch)
	s.ScheduleAfter(2*time.Second, batch)
	s.ScheduleAfter(3*time.Second, batch)
	if err := s.Run(); !errors.Is(err, ErrEventBudget) {
		t.Fatalf("Run err = %v, want ErrEventBudget", err)
	}
	if len(ran) != 2 || s.Executed() != 8 || s.Pending() != 1 {
		t.Fatalf("ran %v, Executed %d, Pending %d; want two batches, 8 and 1", ran, s.Executed(), s.Pending())
	}
	s.SetEventBudget(0)
	if err := s.Run(); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if len(ran) != 3 || s.Executed() != 12 {
		t.Errorf("after resume ran %v, Executed %d; want three batches and 12", ran, s.Executed())
	}
}

func TestRunnerEventsInterleaveWithClosures(t *testing.T) {
	s := New()
	var order []int
	append2 := appendRunner{out: &order, v: 2}
	if err := s.ScheduleRunner(2*time.Second, &append2); err != nil {
		t.Fatalf("ScheduleRunner: %v", err)
	}
	s.ScheduleAfter(time.Second, func() { order = append(order, 1) })
	s.ScheduleRunnerAfter(3*time.Second, &appendRunner{out: &order, v: 3})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if err := s.ScheduleRunner(0, &append2); !errors.Is(err, ErrPastEvent) {
		t.Errorf("ScheduleRunner in past: err = %v, want ErrPastEvent", err)
	}
}

// TestRunnerHandleCancels: the handle ScheduleRunnerAfter returns cancels
// its event like a Schedule handle, and a cancelled runner is reaped
// without being counted as executed.
func TestRunnerHandleCancels(t *testing.T) {
	s := New()
	var order []int
	e := s.ScheduleRunnerAfter(time.Second, &appendRunner{out: &order, v: 1})
	s.ScheduleRunnerAfter(2*time.Second, &appendRunner{out: &order, v: 2})
	if !e.Pending() || e.Time() != time.Second {
		t.Fatalf("handle Pending=%v Time=%v, want true, 1s", e.Pending(), e.Time())
	}
	e.Cancel()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 1 || order[0] != 2 || s.Executed() != 1 {
		t.Errorf("order = %v, Executed = %d; want [2] and 1", order, s.Executed())
	}
	if e.Pending() || !e.Cancelled() {
		t.Errorf("after reap Pending=%v Cancelled=%v, want false, true", e.Pending(), e.Cancelled())
	}
}

type appendRunner struct {
	out *[]int
	v   int
}

func (r *appendRunner) Run() { *r.out = append(*r.out, r.v) }

type nopRunner struct{}

func (nopRunner) Run() {}

func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	// An executed event's box returns to the pool. A handle kept from the
	// old incarnation must be inert against the box's next occupant.
	s := New()
	e1 := s.ScheduleAfter(time.Second, func() {})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ran := false
	s.ScheduleAfter(time.Second, func() { ran = true }) // reuses e1's box
	e1.Cancel()
	if e1.Cancelled() {
		t.Error("stale handle reports Cancelled after its event executed")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Error("stale Cancel leaked into the recycled event")
	}
}

func TestCancelledReportedAfterReap(t *testing.T) {
	s := New()
	e := s.ScheduleAfter(time.Second, func() {})
	e.Cancel()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !e.Cancelled() {
		t.Error("Cancelled() = false after the cancelled event was reaped")
	}
	if e.Pending() {
		t.Error("Pending() = true after reap")
	}
}

func TestScheduleSteadyStateAllocFree(t *testing.T) {
	s := New()
	fn := func() {}
	r := nopRunner{}
	// Warm the heap capacity and the box pool.
	for i := 0; i < 128; i++ {
		s.ScheduleAfter(time.Duration(i), fn)
		s.ScheduleRunnerAfter(time.Duration(i), r)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("warmup Run: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			s.ScheduleRunnerAfter(time.Duration(i), r)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}); allocs != 0 {
		t.Errorf("ScheduleRunner steady state allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			s.ScheduleAfter(time.Duration(i), fn)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}); allocs != 0 {
		t.Errorf("Schedule (reused closure) steady state allocates %.1f/op, want 0", allocs)
	}
	// The two extremes of the bucket queue: one instant holding every
	// event, and one bucket per event across a deep heap and index.
	for _, c := range []struct {
		name               string
		events, perInstant int
	}{
		{"64 events on one instant", 64, 64},
		{"4096 events on 4096 instants", 4096, 1},
	} {
		burst := func() {
			for i := 0; i < c.events; i++ {
				s.ScheduleRunnerAfter(time.Duration(i/c.perInstant), r)
			}
			if err := s.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}
		burst() // warm the boxes, the heap and the index to this size
		if allocs := testing.AllocsPerRun(20, burst); allocs != 0 {
			t.Errorf("%s: steady state allocates %.1f/op, want 0", c.name, allocs)
		}
	}
}

// TestResetReRunsAllocFree: a Reset keeps the boxes, the heap and the
// index warm, so re-running the same schedule allocates nothing, even when
// the previous run left events queued on many instants.
func TestResetReRunsAllocFree(t *testing.T) {
	s := New()
	r := nopRunner{}
	rerun := func() {
		s.Reset()
		for i := 0; i < 1000; i++ {
			s.ScheduleRunnerAfter(time.Duration(i%300)*time.Millisecond, r)
		}
		if err := s.RunUntil(150 * time.Millisecond); err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
		if s.Pending() == 0 {
			t.Fatal("nothing left queued for Reset to recycle")
		}
	}
	rerun()
	if allocs := testing.AllocsPerRun(20, rerun); allocs != 0 {
		t.Errorf("Reset and re-run allocates %.1f/op, want 0", allocs)
	}
}

func TestDeterminism(t *testing.T) {
	trace := func() []time.Duration {
		s := New()
		var out []time.Duration
		var tick func(int)
		tick = func(depth int) {
			out = append(out, s.Now())
			if depth < 50 {
				s.ScheduleAfter(time.Duration(depth+1)*time.Millisecond, func() { tick(depth + 1) })
				s.ScheduleAfter(time.Duration(depth+1)*time.Millisecond, func() { out = append(out, -s.Now()) })
			}
		}
		s.ScheduleAfter(0, func() { tick(0) })
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out
	}
	a := trace()
	b := trace()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPendingAndExecutedCounters(t *testing.T) {
	s := New()
	s.ScheduleAfter(time.Second, func() {})
	s.ScheduleAfter(2*time.Second, func() {})
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Pending() != 0 || s.Executed() != 2 {
		t.Errorf("Pending=%d Executed=%d, want 0 and 2", s.Pending(), s.Executed())
	}
}

func TestEventTimeAccessor(t *testing.T) {
	s := New()
	e := s.ScheduleAfter(42*time.Millisecond, func() {})
	if e.Time() != 42*time.Millisecond {
		t.Errorf("Time() = %v, want 42ms", e.Time())
	}
}

// TestResetRewindsSimulator: after Reset the simulator behaves exactly
// like a fresh New — clock at zero, empty queue, counters cleared, old
// handles inert — while keeping its recycled boxes warm.
func TestResetRewindsSimulator(t *testing.T) {
	s := New()
	s.SetEventBudget(100)
	var fired int
	ev, err := s.Schedule(5*time.Millisecond, func() { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	stale := s.ScheduleAfter(10*time.Millisecond, func() { fired++ })
	stale.Cancel()
	if err := s.RunUntil(6 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d before reset", fired)
	}

	s.Reset()
	if s.Now() != 0 || s.Pending() != 0 || s.Executed() != 0 {
		t.Errorf("after Reset: now=%v pending=%d executed=%d", s.Now(), s.Pending(), s.Executed())
	}
	// Handles from before the Reset are inert: not pending, and a
	// previously cancelled handle keeps answering Cancelled() truthfully
	// (its box is dropped un-recycled, as RunUntil's reaper does).
	if ev.Pending() || ev.Cancelled() || stale.Pending() {
		t.Errorf("stale handles still live: ev(%v,%v) stale pending=%v",
			ev.Pending(), ev.Cancelled(), stale.Pending())
	}
	if !stale.Cancelled() {
		t.Errorf("cancelled handle lost its truthful answer across Reset")
	}
	// Cancelling a stale handle must not touch the recycled box's next
	// occupant.
	next := s.ScheduleAfter(time.Millisecond, func() { fired += 10 })
	stale.Cancel()
	ev.Cancel()
	if !next.Pending() {
		t.Fatalf("stale Cancel leaked into the recycled box")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 11 {
		t.Errorf("fired = %d after reset run, want 11", fired)
	}
}

// TestResetPreservesEventBudget: the executed-event counter rewinds to
// zero but the configured budget stays in force across Reset.
func TestResetPreservesEventBudget(t *testing.T) {
	s := New()
	s.SetEventBudget(1)
	s.ScheduleAfter(0, func() {})
	if err := s.Run(); err != nil {
		t.Fatalf("first run within budget: %v", err)
	}
	s.Reset()
	s.ScheduleAfter(0, func() {})
	s.ScheduleAfter(0, func() {})
	if err := s.Run(); !errors.Is(err, ErrEventBudget) {
		t.Errorf("err = %v, want ErrEventBudget (budget must survive Reset)", err)
	}
	if s.Executed() != 1 {
		t.Errorf("executed = %d after reset run, want 1", s.Executed())
	}
}
