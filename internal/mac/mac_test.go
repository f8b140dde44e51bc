package mac

import (
	"testing"
	"time"
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
