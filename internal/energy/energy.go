// Package energy defines the per-node energy accounting model: a battery
// capacity and the tx/rx/idle costs the radio medium and each node's TDMA
// period boundary charge against it. Like internal/fault it is a declarative
// value Spec with a canonical textual grammar shared by the campaign
// engine and the CLIs:
//
//	none                                    accounting off (the default)
//	battery:<capacity>                      capacity in mJ, calibrated default costs
//	battery:<capacity>:<tx>:<rx>:<idle>     explicit costs: tx/rx in mJ per payload
//	                                        byte, idle in mJ per TDMA data period
//
// Charging is fully deterministic — a pure function of the run's event
// trace — so the model mints no random stream and fault-free defaults
// stay byte-identical. A node whose cumulative spend reaches capacity
// dies on the spot through the fault-injection fail-stop path (radio
// silent, computation stopped, TDMA slot skipped); the sink and the
// source are treated as mains-powered and never die of depletion, so the
// privacy question the simulator exists to answer stays well-posed.
package energy

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Default charge costs, CC2420-flavoured: ≈52 mW transmit and ≈59 mW
// receive at 250 kbit/s come to about 2 µJ per payload byte either way;
// idle listening between scheduled receptions is folded into one small
// per-period charge.
const (
	// DefaultTxCost is the transmit cost in mJ per payload byte.
	DefaultTxCost = 0.002
	// DefaultRxCost is the receive cost in mJ per payload byte.
	DefaultRxCost = 0.002
	// DefaultIdleCost is the idle-listening cost in mJ per TDMA data
	// period.
	DefaultIdleCost = 0.01
)

// Spec configures per-node energy accounting. The zero Spec disables it.
type Spec struct {
	// Capacity is the per-node battery in mJ; accounting is enabled iff
	// Capacity > 0.
	Capacity float64
	// TxCost is charged per payload byte transmitted.
	TxCost float64
	// RxCost is charged per payload byte received (corrupted receptions
	// included: the radio pays for listening whether or not the frame
	// survives).
	RxCost float64
	// IdleCost is charged once per TDMA data period a node is up (idle
	// listening), at the period's boundary; event-driven data phases run
	// no TDMA periods and accrue no idle charge.
	IdleCost float64
}

// Empty reports whether the spec disables energy accounting.
func (s Spec) Empty() bool { return s == Spec{} }

// Validate checks the spec's parameters.
func (s Spec) Validate() error {
	if s.Empty() {
		return nil
	}
	if !finite(s.Capacity) || s.Capacity <= 0 {
		return fmt.Errorf("energy: battery capacity must be a finite value > 0 mJ, got %v", s.Capacity)
	}
	for _, c := range [...]struct {
		name string
		v    float64
	}{{"tx", s.TxCost}, {"rx", s.RxCost}, {"idle", s.IdleCost}} {
		if !finite(c.v) || c.v < 0 {
			return fmt.Errorf("energy: %s cost must be a finite value >= 0 mJ, got %v", c.name, c.v)
		}
	}
	return nil
}

// String renders the canonical grammar form: Parse∘String is the
// identity. Default costs render in the short battery:<capacity> form.
func (s Spec) String() string {
	if s.Empty() {
		return "none"
	}
	b := "battery:" + formatFloat(s.Capacity)
	if s.TxCost == DefaultTxCost && s.RxCost == DefaultRxCost && s.IdleCost == DefaultIdleCost {
		return b
	}
	return b + ":" + formatFloat(s.TxCost) + ":" + formatFloat(s.RxCost) + ":" + formatFloat(s.IdleCost)
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Parse reads the textual grammar. The empty string and "none" disable
// accounting. Parsing is strict: trailing garbage after a valid prefix
// ("battery:8x", "battery:8:1") is an error, and Parse∘String is the
// identity on every canonical spec.
func Parse(s string) (Spec, error) {
	t := strings.TrimSpace(s)
	if t == "" || t == "none" {
		return Spec{}, nil
	}
	name, args, hasArgs := strings.Cut(t, ":")
	if name != "battery" {
		return Spec{}, fmt.Errorf("energy: unknown energy model %q (want none or battery:<capacity>[:<tx>:<rx>:<idle>])", s)
	}
	if !hasArgs || args == "" {
		return Spec{}, fmt.Errorf("energy: battery needs a capacity (battery:<capacity> mJ)")
	}
	parts := strings.Split(args, ":")
	if len(parts) != 1 && len(parts) != 4 {
		return Spec{}, fmt.Errorf("energy: battery wants 1 or 4 arguments (battery:<capacity>[:<tx>:<rx>:<idle>]), got %q", s)
	}
	vals := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || !finite(v) {
			return Spec{}, fmt.Errorf("energy: bad value %q in %q (want a finite number)", p, s)
		}
		vals[i] = v
	}
	// A zero capacity with zero costs would be the empty Spec, which
	// Validate accepts as accounting off: a battery must not parse as none.
	if !(vals[0] > 0) {
		return Spec{}, fmt.Errorf("energy: battery capacity must be > 0 mJ, got %q in %q", parts[0], s)
	}
	spec := Spec{Capacity: vals[0], TxCost: DefaultTxCost, RxCost: DefaultRxCost, IdleCost: DefaultIdleCost}
	if len(vals) == 4 {
		spec.TxCost, spec.RxCost, spec.IdleCost = vals[1], vals[2], vals[3]
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}
