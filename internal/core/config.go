// Package core implements the paper's contribution: the protectionless
// data aggregation scheduling protocol (Figure 2) and the 3-phase SLP-aware
// DAS protocol (Figures 2–4) as guarded-command programs running over the
// simulated radio, plus the full network lifecycle of the evaluation
// (Section VI): neighbour discovery, dissemination, search, slot
// refinement, and TDMA data periods hunted by a (R,H,M,s0,D)-attacker.
package core

import (
	"errors"
	"fmt"
	"time"

	"slpdas/internal/attacker"
	"slpdas/internal/channel"
	"slpdas/internal/energy"
	"slpdas/internal/fault"
	"slpdas/internal/protocol"
)

// Config carries the protocol parameters of Table I plus the simulation
// knobs the paper fixes in prose (§VI). Table I's source period Psrc is
// not one of them: the source sends once per TDMA period (Slots ×
// SlotPeriod), and CL is derived as Δss − SD (see changeLength).
type Config struct {
	// SlotPeriod (Pslot) is the duration of a single TDMA slot: 0.05 s.
	SlotPeriod time.Duration
	// DisseminationPeriod (Pdiss) is the interval between dissemination
	// broadcasts during setup: 0.5 s.
	DisseminationPeriod time.Duration
	// Slots is the number of slots per TDMA period (Δ): 100.
	Slots int
	// MinimumSetupPeriods (MSP) is the number of TDMA periods before the
	// source activates: 80.
	MinimumSetupPeriods int
	// NeighbourDiscoveryPeriods (NDP) is the number of dissemination-sized
	// periods of HELLO beaconing: 4.
	NeighbourDiscoveryPeriods int
	// DisseminationTimeout (DT) is the number of dissemination messages a
	// node sends per state change: 5.
	DisseminationTimeout int
	// SearchDistance (SD) is how many hops SEARCH messages travel from the
	// sink: 3 or 5 in the paper. Only consulted by families for which
	// Protocol.UsesSearchDistance is true (slp-das, phantom).
	SearchDistance int
	// Protocol is the routing family's table entry (see
	// protocol.Protocols; protocol.ByName resolves a name). Default sets
	// protectionless DAS, DefaultSLP the 3-phase SLP-aware DAS.
	Protocol protocol.Protocol
	// SafetyFactor (Cs) scales the protectionless capture time into the
	// safety period: 1.5.
	SafetyFactor float64
	// Attacker carries (R, H, M); the start location s0 is set by the
	// network to the sink, as in the paper.
	Attacker attacker.Params
	// Strategy is the attacker decision behaviour's table entry (see
	// attacker.Strategies; attacker.ByName resolves a name). Default sets
	// first-heard, the D of the paper's (1,0,1,s0,D) attacker.
	Strategy attacker.Entry
	// AttackerCount is the number of simultaneous eavesdroppers, at least
	// 1, all starting at the sink with independent random streams and
	// fresh strategy instances. Default sets the paper's single attacker.
	// Capture is scored for the first to reach the source.
	AttackerCount int
	// SharedHistory pools one H-window across all attackers, so the team
	// collectively avoids anywhere any member has visited. Only meaningful
	// with AttackerCount > 1 and Attacker.H > 0.
	SharedHistory bool
	// Channel is the physical channel (see internal/channel; channel.Parse
	// reads the textual grammar). Nil means the ideal channel, the paper's
	// reliable-network evaluation setting. Channel values are immutable and
	// hold no run state, so Configs copied across campaign workers share
	// nothing mutable.
	Channel channel.Model
	// Collisions enables receiver-side collision corruption. Ignored by
	// channels with SINR capture, which replace the binary window with the
	// interference accumulator.
	Collisions bool
	// Energy configures per-node energy accounting (see internal/energy).
	// The zero Spec disables it: no charging, no depletion, no extra
	// random draws, byte-identical runs. With a battery configured, a node
	// whose spend reaches capacity crash-stops through the fault-injection
	// path; the sink and source are mains-powered and never die.
	Energy energy.Spec
	// EventBudget bounds simulator events per run (0 = default 50M).
	EventBudget uint64
	// FastCollisionResolve lets a collision loser jump directly to the
	// nearest slot below its own that no 2-hop neighbour occupies, instead
	// of Figure 2's unit decrement, which re-floods the neighbourhood once
	// per slot of descent — on deep random geometric graphs that is ~95%
	// of all dissemination traffic and grows superlinearly with n (the
	// descending slot bands of neighbouring branches keep re-colliding).
	// Off by default: the schedules reached differ (deterministically)
	// from the paper's, and are valid less often on dense graphs where the
	// slot space runs out (see resolveTarget), so Table I evaluations keep
	// the faithful rule.
	FastCollisionResolve bool
	// PathCap bounds per-attacker walk recording in Results: 0 (default)
	// records the full walk, N > 0 keeps only the first N visited
	// locations (including s0), PathRecordingOff disables recording beyond
	// s0. Capture verdicts, capture times and per-attacker move counts
	// (Result.AttackerMoves) are unaffected — only the replayable walk in
	// AttackerPath/AttackerPaths is truncated. At 10⁵–10⁶ nodes a full
	// walk is tens of thousands of entries per attacker per run; campaigns
	// never render walks and disable recording by default.
	PathCap int
	// Faults is the deterministic fault-injection plan specification (see
	// fault.Parse), expanded into timed events as a pure function of
	// (spec, seed) on a dedicated named stream at Reset. The zero value
	// injects nothing and draws nothing, so fault-free runs are
	// byte-identical to builds that predate the subsystem.
	Faults fault.Spec
}

// bootJitter is the per-node random boot delay, standing in for TOSSIM's
// randomised boot times.
const bootJitter = 50 * time.Millisecond

// PathRecordingOff is the Config.PathCap value that disables attacker
// walk recording (paths keep only the start location).
const PathRecordingOff = -1

// Default returns the Table I parameters with SD = 3: protectionless DAS
// hunted by one first-heard attacker.
func Default() Config {
	return Config{
		SlotPeriod:                50 * time.Millisecond,
		DisseminationPeriod:       500 * time.Millisecond,
		Slots:                     100,
		MinimumSetupPeriods:       80,
		NeighbourDiscoveryPeriods: 4,
		DisseminationTimeout:      5,
		SearchDistance:            3,
		Protocol:                  must(protocol.ByName(protocol.NameProtectionless)),
		SafetyFactor:              1.5,
		Attacker:                  attacker.Params{R: 1, H: 0, M: 1},
		Strategy:                  must(attacker.ByName(attacker.DefaultStrategy)),
		AttackerCount:             1,
	}
}

// DefaultSLP returns Table I parameters with the SLP protocol enabled and
// the given search distance.
func DefaultSLP(searchDistance int) Config {
	c := Default()
	c.Protocol = must(protocol.ByName(protocol.NameSLPDAS))
	c.SearchDistance = searchDistance
	return c
}

// must returns v, panicking on err: Default and DefaultSLP resolve names
// the tables always hold.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Validate reports the first invalid parameter.
func (c Config) Validate() error {
	if c.SlotPeriod <= 0 || c.DisseminationPeriod <= 0 {
		return fmt.Errorf("core: periods must be positive (slot=%v diss=%v)", c.SlotPeriod, c.DisseminationPeriod)
	}
	if c.Slots < 2 {
		return fmt.Errorf("core: need at least 2 slots, got %d", c.Slots)
	}
	if c.MinimumSetupPeriods < 1 {
		return fmt.Errorf("core: MSP must be >= 1, got %d", c.MinimumSetupPeriods)
	}
	if c.NeighbourDiscoveryPeriods < 1 {
		return fmt.Errorf("core: NDP must be >= 1, got %d", c.NeighbourDiscoveryPeriods)
	}
	if c.DisseminationTimeout < 1 {
		return fmt.Errorf("core: DT must be >= 1, got %d", c.DisseminationTimeout)
	}
	if c.Protocol.Name == "" {
		return errors.New("core: no routing family (start from Default or DefaultSLP)")
	}
	if c.Protocol.UsesSearchDistance && c.SearchDistance < 1 {
		return fmt.Errorf("core: protocol %q needs SearchDistance >= 1, got %d", c.Protocol.Name, c.SearchDistance)
	}
	if c.SafetyFactor <= 0 {
		return fmt.Errorf("core: safety factor must be positive, got %v", c.SafetyFactor)
	}
	if err := (attacker.Params{R: c.Attacker.R, H: c.Attacker.H, M: c.Attacker.M, Start: 0}).Validate(); err != nil {
		return err
	}
	if c.Strategy.New == nil {
		return errors.New("core: no attacker strategy (start from Default or DefaultSLP)")
	}
	if c.AttackerCount < 1 {
		return fmt.Errorf("core: attacker count must be >= 1, got %d", c.AttackerCount)
	}
	if c.PathCap < PathRecordingOff {
		return fmt.Errorf("core: path cap must be >= %d (off), got %d", PathRecordingOff, c.PathCap)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.Channel != nil {
		if err := channel.Validate(c.Channel); err != nil {
			return err
		}
	}
	if err := c.Energy.Validate(); err != nil {
		return err
	}
	return nil
}
