package mac

import (
	"testing"
	"time"

	"slpdas/internal/des"
)

var paperTiming = Timing{Slots: 100, SlotDuration: 50 * time.Millisecond}

// newTask wires a slot task for a node that never dies and spends nothing
// at period boundaries.
func newTask(sim *des.Simulator, slot func() int, fire func(period int)) *SlotTask {
	return NewSlotTask(sim, slot, fire, func() bool { return true }, func() {})
}

func TestPeriodDurationMatchesTableI(t *testing.T) {
	// 100 slots × 0.05s = 5s per TDMA period.
	if got := paperTiming.PeriodDuration(); got != 5*time.Second {
		t.Errorf("PeriodDuration = %v, want 5s", got)
	}
}

func TestSlotStart(t *testing.T) {
	if got := paperTiming.SlotStart(0, 0); got != 0 {
		t.Errorf("SlotStart(0,0) = %v, want 0", got)
	}
	if got := paperTiming.SlotStart(2, 10); got != 10*time.Second+500*time.Millisecond {
		t.Errorf("SlotStart(2,10) = %v", got)
	}
}

func TestValidSlot(t *testing.T) {
	for slot, want := range map[int]bool{-1: false, 0: true, 99: true, 100: false} {
		if got := paperTiming.ValidSlot(slot); got != want {
			t.Errorf("ValidSlot(%d) = %v, want %v", slot, got, want)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := paperTiming.Validate(); err != nil {
		t.Errorf("Validate = %v, want nil", err)
	}
	if err := (Timing{Slots: 0, SlotDuration: time.Second}).Validate(); err == nil {
		t.Error("zero slots validated")
	}
	if err := (Timing{Slots: 10, SlotDuration: 0}).Validate(); err == nil {
		t.Error("zero slot duration validated")
	}
}

func TestSlotTaskFiresAtSlotTimes(t *testing.T) {
	sim := des.New()
	timing := Timing{Slots: 10, SlotDuration: 100 * time.Millisecond}
	epoch := 2 * time.Second
	var fires []time.Duration
	var periods []int
	err := newTask(sim, func() int { return 3 }, func(period int) {
		fires = append(fires, sim.Now())
		periods = append(periods, period)
	}).Start(timing, epoch)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sim.RunUntil(epoch + 3*timing.PeriodDuration()); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fires) != 3 {
		t.Fatalf("fired %d times, want 3", len(fires))
	}
	for i, at := range fires {
		want := epoch + timing.SlotStart(i, 3)
		if at != want {
			t.Errorf("fire %d at %v, want %v", i, at, want)
		}
		if periods[i] != i {
			t.Errorf("fire %d period = %d", i, periods[i])
		}
	}
}

func TestSlotTaskReReadsSlotEachPeriod(t *testing.T) {
	sim := des.New()
	timing := Timing{Slots: 10, SlotDuration: 100 * time.Millisecond}
	slot := 2
	var offsets []time.Duration
	err := newTask(sim, func() int { return slot }, func(period int) {
		offsets = append(offsets, sim.Now()-timing.SlotStart(period, 0))
	}).Start(timing, 0)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Change the slot after the first period has begun: takes effect in
	// period 1 (the Phase 3 refinement path).
	sim.ScheduleAfter(50*time.Millisecond, func() { slot = 7 })
	if err := sim.RunUntil(2 * timing.PeriodDuration()); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(offsets) != 2 {
		t.Fatalf("fired %d times, want 2", len(offsets))
	}
	if offsets[0] != 2*timing.SlotDuration {
		t.Errorf("period 0 offset = %v, want slot 2", offsets[0])
	}
	if offsets[1] != 7*timing.SlotDuration {
		t.Errorf("period 1 offset = %v, want slot 7", offsets[1])
	}
}

func TestSlotTaskSkipsInvalidSlot(t *testing.T) {
	// The sink carries slot Δ == Slots: it must never fire.
	sim := des.New()
	timing := Timing{Slots: 10, SlotDuration: 100 * time.Millisecond}
	fired := 0
	if err := newTask(sim, func() int { return timing.Slots }, func(int) { fired++ }).Start(timing, 0); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sim.RunUntil(5 * timing.PeriodDuration()); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fired != 0 {
		t.Errorf("invalid slot fired %d times, want 0", fired)
	}
}

func TestSlotTaskRejectsPastEpochAndBadTiming(t *testing.T) {
	sim := des.New()
	sim.ScheduleAfter(time.Second, func() {})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	task := newTask(sim, func() int { return 0 }, func(int) {})
	if err := task.Start(paperTiming, 0); err == nil {
		t.Error("past epoch accepted")
	}
	if err := task.Start(Timing{}, 2*time.Second); err == nil {
		t.Error("invalid timing accepted")
	}
}
