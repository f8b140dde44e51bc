// Package mac implements the TDMA medium-access layer's timing: the
// slot/period structure ("one given slot assignment will give rise to one
// traffic pattern"). The nodes of internal/core run their own periods on
// it, one transmission opportunity per period in their assigned slot.
package mac

import (
	"fmt"
	"time"
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
