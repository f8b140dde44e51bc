// Package mac implements the TDMA medium-access layer: the slot/period
// timing structure ("one given slot assignment will give rise to one
// traffic pattern") and a periodic slot task that fires a node's
// transmission opportunity once per TDMA period in its assigned slot.
package mac

import (
	"fmt"
	"time"

	"slpdas/internal/des"
)

// Timing describes the TDMA superframe: Slots slots of SlotDuration each.
// With the paper's Table I values (100 slots × 0.05 s) a period lasts 5 s.
type Timing struct {
	Slots        int
	SlotDuration time.Duration
}

// Validate reports whether the timing parameters are usable.
func (t Timing) Validate() error {
	if t.Slots <= 0 {
		return fmt.Errorf("mac: slots must be positive, got %d", t.Slots)
	}
	if t.SlotDuration <= 0 {
		return fmt.Errorf("mac: slot duration must be positive, got %v", t.SlotDuration)
	}
	return nil
}

// PeriodDuration returns the length of one TDMA period.
func (t Timing) PeriodDuration() time.Duration {
	return time.Duration(t.Slots) * t.SlotDuration
}

// SlotStart returns the absolute time (relative to epoch 0) at which the
// given slot of the given period begins.
func (t Timing) SlotStart(period, slot int) time.Duration {
	return time.Duration(period)*t.PeriodDuration() + time.Duration(slot)*t.SlotDuration
}

// ValidSlot reports whether slot is a transmittable slot index.
func (t Timing) ValidSlot(slot int) bool {
	return slot >= 0 && slot < t.Slots
}

// SlotTask schedules one transmission opportunity per TDMA period. The
// slot is re-read at each period boundary so late slot refinements
// (Phase 3) take effect on the next period. A slot outside [0, Slots)
// skips the period — this is how the sink (slot Δ = Slots) never
// transmits.
//
// The task is its own des.Runner for the period-boundary event, and owns a
// second reusable runner for the in-period firing — the per-period cost is
// two pooled events and zero allocations, where the closure-based version
// allocated two closures per node per period.
type SlotTask struct {
	sim    *des.Simulator
	timing Timing
	slot   func() int
	fire   func(period int)
	// alive is consulted at each period boundary and again at the slot
	// offset: a dead node's period passes in silence while the period count
	// keeps advancing, so sequence numbers stay aligned with wall-clock
	// periods across a crash and recovery.
	alive func() bool
	// periodHook runs once at each period boundary the node is alive for,
	// before the slot is polled. Core charges idle-listening energy here;
	// the hook may kill the node (battery depletion), so liveness is
	// re-checked after it and a mid-hook death silences the period's slot.
	periodHook func()
	period     int
	fireEv     fireEvent
}

// fireEvent is the in-period transmission event. Only one is ever in
// flight per task (the slot offset is strictly inside the period), so it
// is safely reused every period.
type fireEvent struct {
	st     *SlotTask
	period int
}

//slp:hotpath
func (f *fireEvent) Run() {
	if f.st.alive() {
		f.st.fire(f.period)
	}
}

// NewSlotTask wires a slot task without starting it. slot is polled at
// each period start, fire runs at the slot's offset within the period, and
// alive and periodHook behave as SlotTask describes; none may be nil.
// Arena-style callers construct the task (and its callback closures) once
// per node and re-arm it each run with Start.
func NewSlotTask(sim *des.Simulator, slot func() int, fire func(period int), alive func() bool, periodHook func()) *SlotTask {
	st := &SlotTask{sim: sim, slot: slot, fire: fire, alive: alive, periodHook: periodHook}
	st.fireEv.st = st
	return st
}

// Start (re-)arms the task at absolute time epoch, the start of period 0:
// period counting restarts at 0 with the given timing. Restarting after
// the owning simulator was Reset is the supported reuse path — any events
// the previous run left behind were discarded by that Reset.
func (st *SlotTask) Start(timing Timing, epoch time.Duration) error {
	if err := timing.Validate(); err != nil {
		return err
	}
	if epoch < st.sim.Now() {
		return fmt.Errorf("mac: epoch %v is in the past (now %v)", epoch, st.sim.Now())
	}
	st.timing = timing
	st.period = 0
	return st.sim.ScheduleRunner(epoch, st)
}

// Run implements des.Runner: the period-boundary event.
//
//slp:hotpath
func (st *SlotTask) Run() {
	if st.alive() {
		st.periodHook()
		// Re-check: the hook may have killed the node (battery depletion),
		// and a node that died at the boundary has no slot this period.
		if st.alive() {
			s := st.slot()
			if st.timing.ValidSlot(s) {
				st.fireEv.period = st.period
				st.sim.ScheduleRunnerAfter(time.Duration(s)*st.timing.SlotDuration, &st.fireEv)
			}
		}
	}
	st.period++
	st.sim.ScheduleRunnerAfter(st.timing.PeriodDuration(), st)
}
