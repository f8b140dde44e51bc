package mac

import (
	"testing"
	"time"

	"slpdas/internal/des"
)

// TestAliveCheckSilencesDeadPeriods: a dead node's periods pass in silence but the period count keeps advancing, so
// the firings after recovery carry the wall-clock period index — sequence
// numbers stay aligned across a crash.
func TestAliveCheckSilencesDeadPeriods(t *testing.T) {
	sim := des.New()
	timing := Timing{Slots: 10, SlotDuration: 10 * time.Millisecond}
	alive := true
	var fired []int
	err := NewSlotTask(sim,
		func() int { return 3 },
		func(period int) { fired = append(fired, period) },
		func() bool { return alive },
		func() {}).Start(timing, 0)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}

	period := timing.PeriodDuration()
	// Dead for periods 2 and 3, alive again from period 4.
	sim.ScheduleAfter(2*period, func() { alive = false })
	sim.ScheduleAfter(4*period, func() { alive = true })
	if err := sim.RunUntil(6*period - time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	want := []int{0, 1, 4, 5}
	if len(fired) != len(want) {
		t.Fatalf("fired periods %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired periods %v, want %v", fired, want)
		}
	}
}

// TestAliveCheckMidPeriodCrash: a node that dies between the period
// boundary and its slot offset must not transmit in that period.
func TestAliveCheckMidPeriodCrash(t *testing.T) {
	sim := des.New()
	timing := Timing{Slots: 10, SlotDuration: 10 * time.Millisecond}
	alive := true
	fired := 0
	err := NewSlotTask(sim,
		func() int { return 5 },
		func(int) { fired++ },
		func() bool { return alive },
		func() {}).Start(timing, 0)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Crash inside period 0, before slot 5's offset.
	sim.ScheduleAfter(2*timing.SlotDuration, func() { alive = false })
	if err := sim.RunUntil(timing.PeriodDuration() - time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fired != 0 {
		t.Errorf("node fired %d times in the period it died mid-period, want 0", fired)
	}
}

// TestPeriodHookDeathSilencesSlot: the period hook runs once per period
// the node is alive at the boundary, and a hook that kills the node
// (battery depletion) silences that period's slot.
func TestPeriodHookDeathSilencesSlot(t *testing.T) {
	sim := des.New()
	timing := Timing{Slots: 10, SlotDuration: 10 * time.Millisecond}
	alive := true
	hooks, fired := 0, 0
	err := NewSlotTask(sim,
		func() int { return 3 },
		func(int) { fired++ },
		func() bool { return alive },
		func() {
			hooks++
			if hooks == 2 {
				alive = false
			}
		}).Start(timing, 0)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sim.RunUntil(4*timing.PeriodDuration() - time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if hooks != 2 || fired != 1 {
		t.Errorf("hooks = %d, fired = %d; want 2 hooks and 1 firing (death in the second hook)", hooks, fired)
	}
}
