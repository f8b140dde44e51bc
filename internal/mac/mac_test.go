package mac

import (
	"testing"
	"time"

	"slpdas/internal/des"
)

var paperTiming = Timing{Slots: 100, SlotDuration: 50 * time.Millisecond}

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
	_, err := StartSlotTask(sim, timing, epoch, func() int { return 3 }, func(period int) {
		fires = append(fires, sim.Now())
		periods = append(periods, period)
	})
	if err != nil {
		t.Fatalf("StartSlotTask: %v", err)
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
	_, err := StartSlotTask(sim, timing, 0, func() int { return slot }, func(period int) {
		offsets = append(offsets, sim.Now()-timing.SlotStart(period, 0))
	})
	if err != nil {
		t.Fatalf("StartSlotTask: %v", err)
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
	_, err := StartSlotTask(sim, timing, 0, func() int { return timing.Slots }, func(int) { fired++ })
	if err != nil {
		t.Fatalf("StartSlotTask: %v", err)
	}
	if err := sim.RunUntil(5 * timing.PeriodDuration()); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fired != 0 {
		t.Errorf("invalid slot fired %d times, want 0", fired)
	}
}

func TestSlotTaskStop(t *testing.T) {
	sim := des.New()
	timing := Timing{Slots: 4, SlotDuration: 100 * time.Millisecond}
	fired := 0
	task, err := StartSlotTask(sim, timing, 0, func() int { return 1 }, func(int) { fired++ })
	if err != nil {
		t.Fatalf("StartSlotTask: %v", err)
	}
	sim.ScheduleAfter(timing.PeriodDuration()+10*time.Millisecond, func() { task.Stop() })
	if err := sim.RunUntil(10 * timing.PeriodDuration()); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fired != 1 {
		t.Errorf("fired %d times after stop, want 1", fired)
	}
}

func TestSlotTaskRejectsPastEpochAndBadTiming(t *testing.T) {
	sim := des.New()
	sim.ScheduleAfter(time.Second, func() {})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := StartSlotTask(sim, paperTiming, 0, func() int { return 0 }, func(int) {}); err == nil {
		t.Error("past epoch accepted")
	}
	if _, err := StartSlotTask(sim, Timing{}, 2*time.Second, func() int { return 0 }, func(int) {}); err == nil {
		t.Error("invalid timing accepted")
	}
}
