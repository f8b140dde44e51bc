package core

import (
	"math"
	"testing"
	"time"

	"slpdas/internal/attacker"
	"slpdas/internal/channel"
	"slpdas/internal/fault"
	"slpdas/internal/protocol"
	"slpdas/internal/schedule"
	"slpdas/internal/topo"
	"slpdas/internal/verify"
	"slpdas/internal/wire"
)

func grid(t *testing.T, side int) *topo.Graph {
	t.Helper()
	g, err := topo.DefaultGrid(side)
	if err != nil {
		t.Fatalf("grid %d: %v", side, err)
	}
	return g
}

func run(t *testing.T, g *topo.Graph, side int, cfg Config, seed uint64) *Result {
	t.Helper()
	net, err := NewNetwork(g, topo.GridCentre(side), topo.GridTopLeft(), cfg, seed)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatalf("Run (seed %d): %v", seed, err)
	}
	return res
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := DefaultSLP(3).Validate(); err != nil {
		t.Errorf("default SLP config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.SlotPeriod = 0 },
		func(c *Config) { c.Slots = 1 },
		func(c *Config) { c.MinimumSetupPeriods = 0 },
		func(c *Config) { c.NeighbourDiscoveryPeriods = 0 },
		func(c *Config) { c.DisseminationTimeout = 0 },
		func(c *Config) { c.Protocol = must(protocol.ByName(protocol.NameSLPDAS)); c.SearchDistance = 0 },
		func(c *Config) { c.Protocol = protocol.Protocol{} },
		func(c *Config) { c.Strategy = attacker.Entry{} },
		func(c *Config) { c.AttackerCount = 0 },
		func(c *Config) { c.SafetyFactor = 0 },
		func(c *Config) { c.Attacker.R = 0 },
		func(c *Config) { c.Channel = channel.Bernoulli{P: 2} },
		func(c *Config) { c.Channel = channel.LogDistance{Exp: 2.4, Sigma: -1} },
	}
	for i, mutate := range bad {
		c := Default()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	// Reset validates its Config on every run: a parsed channel is checked
	// without rendering or parsing a string.
	c := DefaultSLP(3)
	c.Channel = mustChannel("logdist:2.4:4@sinr:3")
	if allocs := testing.AllocsPerRun(10, func() { _ = c.Validate() }); allocs != 0 {
		t.Errorf("Validate allocates %.0f times per call, want 0", allocs)
	}
}

func TestTableITiming(t *testing.T) {
	net, err := NewNetwork(grid(t, 5), 12, 0, Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if net.period != 5*time.Second {
		t.Errorf("period = %v, want 5s (100 slots × 0.05s)", net.period)
	}
}

func TestNewNetworkRejectsBadInputs(t *testing.T) {
	g := grid(t, 5)
	if _, err := NewNetwork(g, 99, 0, Default(), 1); err == nil {
		t.Error("invalid sink accepted")
	}
	if _, err := NewNetwork(g, 12, 12, Default(), 1); err == nil {
		t.Error("sink == source accepted")
	}
	cfg := Default()
	cfg.Slots = 0
	if _, err := NewNetwork(g, 12, 0, cfg, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestPhase1ProducesValidWeakDAS is invariant 1 of DESIGN.md: the
// distributed Phase 1 protocol converges to a collision-free weak DAS on
// every seed.
func TestPhase1ProducesValidWeakDAS(t *testing.T) {
	const side = 7
	g := grid(t, side)
	for seed := uint64(0); seed < 15; seed++ {
		res := run(t, g, side, Default(), seed)
		if !res.ScheduleValid() {
			t.Errorf("seed %d: weak=%d collisions=%d range=%d",
				seed, res.WeakViolations, res.CollisionViolations, res.RangeViolations)
		}
	}
}

// TestPhase3PreservesDAS is invariant 2: the SLP refinement (Phase 2+3
// plus the update cascade) keeps the schedule a collision-free weak DAS.
func TestPhase3PreservesDAS(t *testing.T) {
	const side = 7
	g := grid(t, side)
	changedTotal := 0
	for seed := uint64(0); seed < 15; seed++ {
		res := run(t, g, side, DefaultSLP(3), seed)
		if !res.ScheduleValid() {
			t.Errorf("seed %d: weak=%d collisions=%d range=%d",
				seed, res.WeakViolations, res.CollisionViolations, res.RangeViolations)
		}
		if !res.SearchSent {
			t.Errorf("seed %d: no SEARCH sent", seed)
		}
		changedTotal += res.ChangedNodes
	}
	if changedTotal == 0 {
		t.Error("refinement never changed a slot in 15 runs")
	}
}

func TestPhase1OnPaperGridSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-size sweep")
	}
	for _, side := range []int{11, 15} {
		g := grid(t, side)
		res := run(t, g, side, Default(), 42)
		if !res.ScheduleValid() {
			t.Errorf("size %d: invalid schedule", side)
		}
		res = run(t, g, side, DefaultSLP(3), 42)
		if !res.ScheduleValid() {
			t.Errorf("size %d SLP: invalid schedule", side)
		}
	}
}

// TestConvergecastDelivery: with the DAS property, every period's source
// report reaches the sink within the same period on a loss-free network.
func TestConvergecastDelivery(t *testing.T) {
	const side = 7
	g := grid(t, side)
	res := run(t, g, side, Default(), 3)
	if res.SourceDeliveries == 0 {
		t.Fatal("no source reports delivered to the sink")
	}
	if lat := res.MeanDeliveryLatency(); lat != 0 {
		t.Errorf("mean delivery latency = %.2f periods, want 0 (children transmit before parents)", lat)
	}
}

// TestDeterminism: a run is a pure function of its seed.
func TestDeterminism(t *testing.T) {
	const side = 7
	g := grid(t, side)
	a := run(t, g, side, DefaultSLP(3), 9)
	b := run(t, g, side, DefaultSLP(3), 9)
	if a.Captured != b.Captured || a.CaptureAt != b.CaptureAt {
		t.Errorf("capture outcome differs: %v/%v vs %v/%v", a.Captured, a.CaptureAt, b.Captured, b.CaptureAt)
	}
	if !a.Assignment.Equal(b.Assignment) {
		t.Error("slot assignments differ between same-seed runs")
	}
	if len(a.AttackerPath) != len(b.AttackerPath) {
		t.Fatalf("attacker paths differ in length")
	}
	for i := range a.AttackerPath {
		if a.AttackerPath[i] != b.AttackerPath[i] {
			t.Fatalf("attacker paths diverge at %d", i)
		}
	}
	if a.TotalMessages() != b.TotalMessages() {
		t.Errorf("message counts differ: %d vs %d", a.TotalMessages(), b.TotalMessages())
	}
}

func TestSeedsDiffer(t *testing.T) {
	const side = 7
	g := grid(t, side)
	a := run(t, g, side, Default(), 1)
	b := run(t, g, side, Default(), 2)
	if a.Assignment.Equal(b.Assignment) {
		t.Error("different seeds produced identical schedules; no run-to-run variation")
	}
}

// TestSimulatedAttackerAgreesWithVerify is invariant 4: on a loss-free
// network with a settled schedule, the live (1,0,1) attacker and the
// Algorithm 1 decision procedure agree on capture, and on the trace.
func TestSimulatedAttackerAgreesWithVerify(t *testing.T) {
	const side = 7
	g := grid(t, side)
	sink, source := topo.GridCentre(side), topo.GridTopLeft()
	agreeCaptures := 0
	for seed := uint64(0); seed < 20; seed++ {
		res := run(t, g, side, Default(), seed)
		if !res.ScheduleValid() {
			t.Fatalf("seed %d: invalid schedule", seed)
		}
		delta := int(res.SafetyPeriod) // floor of 1.5·(Δss+1)
		vres, err := verify.VerifySchedule(g, res.Assignment,
			attacker.Params{R: 1, M: 1, Start: sink}, verify.FirstHeardD, delta, source, verify.Options{})
		if err != nil {
			t.Fatalf("seed %d: VerifySchedule: %v", seed, err)
		}
		if vres.SLPAware == res.Captured {
			t.Errorf("seed %d: sim captured=%v but verify SLPAware=%v", seed, res.Captured, vres.SLPAware)
			continue
		}
		if res.Captured {
			agreeCaptures++
			// The deterministic attacker has one trajectory; the minimal
			// counterexample must be exactly the simulated path.
			if len(vres.Counterexample) != len(res.AttackerPath) {
				t.Errorf("seed %d: trace lengths differ: verify %v vs sim %v",
					seed, vres.Counterexample, res.AttackerPath)
				continue
			}
			for i := range vres.Counterexample {
				if vres.Counterexample[i] != res.AttackerPath[i] {
					t.Errorf("seed %d: traces diverge at step %d", seed, i)
					break
				}
			}
		}
	}
	if agreeCaptures == 0 {
		t.Log("note: no captures in 20 seeds; agreement only exercised the negative case")
	}
}

// TestSLPReducesCaptures is the headline direction: across seeds, SLP DAS
// captures at most as often as protectionless DAS (E5).
func TestSLPReducesCaptures(t *testing.T) {
	if testing.Short() {
		t.Skip("aggregate sweep")
	}
	const side = 9
	g := grid(t, side)
	prot, slp := 0, 0
	const runs = 30
	for seed := uint64(0); seed < runs; seed++ {
		if run(t, g, side, Default(), seed).Captured {
			prot++
		}
		if run(t, g, side, DefaultSLP(3), seed).Captured {
			slp++
		}
	}
	t.Logf("captures over %d seeds: protectionless=%d slp=%d", runs, prot, slp)
	if prot == 0 {
		t.Skip("no protectionless captures at this size/seed range; direction not measurable")
	}
	if slp > prot {
		t.Errorf("SLP DAS captured more often (%d) than protectionless (%d)", slp, prot)
	}
}

func TestRunSetupExtractsSchedule(t *testing.T) {
	const side = 5
	g := grid(t, side)
	net, err := NewNetwork(g, topo.GridCentre(side), topo.GridTopLeft(), Default(), 7)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	a, err := net.RunSetup()
	if err != nil {
		t.Fatalf("RunSetup: %v", err)
	}
	if vs := schedule.CheckWeakDAS(g, a); len(vs) != 0 {
		t.Errorf("setup-only schedule invalid: %v", vs)
	}
}

// TestFailureInjection: nodes failed before discovery never join; the
// surviving network still forms a weak DAS around the hole.
func TestFailureInjection(t *testing.T) {
	const side = 7
	g := grid(t, side)
	failed := []topo.NodeID{topo.GridIndex(side, 2, 2), topo.GridIndex(side, 4, 5)}
	cfg := Default()
	cfg.Faults = fault.Spec{Kind: fault.Fail, Nodes: failed, At: 0}
	net, err := NewNetwork(g, topo.GridCentre(side), topo.GridTopLeft(), cfg, 5)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	failedSet := map[topo.NodeID]bool{}
	for _, f := range failed {
		failedSet[f] = true
		if res.Assignment.Assigned(f) {
			t.Errorf("failed node %d obtained a slot", f)
		}
	}
	for _, v := range schedule.CheckWeakDAS(g, res.Assignment) {
		// Violations at (or caused by routing around) failed nodes are
		// expected; any violation at a live node with live routes is not.
		if failedSet[v.Node] {
			continue
		}
		if v.Kind != schedule.KindCollision {
			continue
		}
		// A 2-hop collision is physically real only if the pair shares a
		// live common receiver (or is adjacent). A collision whose only
		// middle node died is unobservable and undetectable by design.
		if g.HasEdge(v.Node, v.Other) {
			t.Errorf("adjacent live collision: %v", v)
			continue
		}
		live := false
		for _, m := range g.Neighbors(v.Node) {
			if failedSet[m] {
				continue
			}
			if g.HasEdge(m, v.Other) {
				live = true
				break
			}
		}
		if live {
			t.Errorf("collision among live nodes with a live witness: %v", v)
		}
	}
}

// TestLossyChannelStillConverges: under 10% Bernoulli loss the DT resend
// budget still drives Phase 1 to a usable schedule on most seeds.
func TestLossyChannelStillConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy sweep")
	}
	const side = 7
	g := grid(t, side)
	valid := 0
	const runs = 10
	for seed := uint64(0); seed < runs; seed++ {
		cfg := Default()
		cfg.Channel = channel.Bernoulli{P: 0.1}
		res := run(t, g, side, cfg, seed)
		if res.ScheduleValid() {
			valid++
		}
	}
	if valid < runs*7/10 {
		t.Errorf("only %d/%d lossy runs converged to a valid schedule", valid, runs)
	}
}

// TestCollisionsEnabledSetupStillConverges: with receiver-side collisions
// on, the jittered dissemination still converges.
func TestCollisionsEnabledSetupStillConverges(t *testing.T) {
	const side = 5
	g := grid(t, side)
	cfg := Default()
	cfg.Collisions = true
	valid := 0
	for seed := uint64(0); seed < 5; seed++ {
		if run(t, g, side, cfg, seed).ScheduleValid() {
			valid++
		}
	}
	if valid < 4 {
		t.Errorf("only %d/5 collision-enabled runs converged", valid)
	}
}

// TestSinkNeverTransmitsData: the sink holds slot Δ and must not appear as
// a data-phase transmitter (its slot is outside the TDMA range).
func TestSinkNeverTransmitsData(t *testing.T) {
	const side = 5
	g := grid(t, side)
	res := run(t, g, side, Default(), 11)
	sink := topo.GridCentre(side)
	if got := res.Assignment.Slot(sink); got != Default().Slots {
		t.Errorf("sink slot = %d, want Δ = %d", got, Default().Slots)
	}
	for _, n := range res.AttackerPath {
		if n == sink && res.AttackerPath[0] != sink {
			t.Error("attacker moved onto the sink mid-walk (it should never hear it transmit)")
		}
	}
}

// TestCaptureTimeRespectsHopDistance: no attacker can capture faster than
// one hop per period over the sink–source distance.
func TestCaptureTimeRespectsHopDistance(t *testing.T) {
	const side = 7
	g := grid(t, side)
	for seed := uint64(0); seed < 20; seed++ {
		res := run(t, g, side, Default(), seed)
		if res.Captured && res.CapturePeriods < float64(res.DeltaSS-1) {
			t.Errorf("seed %d: captured in %.1f periods, hop distance %d", seed, res.CapturePeriods, res.DeltaSS)
		}
	}
}

// TestMessageOverheadNegligible quantifies E4 at small scale: the SLP
// protocol's extra *control* messages are a small fraction of traffic
// (runs stop early on capture, so raw DATA totals are not comparable —
// both protocols send exactly one DATA frame per node per period).
func TestMessageOverheadNegligible(t *testing.T) {
	const side = 7
	g := grid(t, side)
	prot := run(t, g, side, Default(), 1)
	slp := run(t, g, side, DefaultSLP(3), 1)
	extra := int64(slp.ControlMessages()) - int64(prot.ControlMessages())
	if extra < 0 {
		extra = 0
	}
	frac := float64(extra) / float64(prot.TotalMessages())
	t.Logf("extra control messages: %d (%.2f%% of protectionless traffic)", extra, frac*100)
	if frac > 0.15 {
		t.Errorf("SLP control overhead %.1f%% is not negligible", frac*100)
	}
	// Phase 2/3 message cost itself is tiny.
	searchChange := slp.Messages[wire.TypeSearch].Count + slp.Messages[wire.TypeChange].Count
	if float64(searchChange) > 0.05*float64(slp.TotalMessages()) {
		t.Errorf("SEARCH+CHANGE = %d messages, more than 5%% of traffic", searchChange)
	}
	// Data-plane rate is identical by design: one frame per node per period
	// (every node except the sink transmits). Runs that stop on capture end
	// mid-period, so allow slack below the ideal rate.
	want := float64(side*side - 1)
	for _, r := range []*Result{prot, slp} {
		if got := r.DataMessagesPerPeriod(); got < want*0.8 || got > want*1.05 {
			t.Errorf("%s: %.1f data msgs/period, want ≈%.0f", r.Protocol, got, want)
		}
	}
}

func TestResultStringAndAccessors(t *testing.T) {
	const side = 5
	g := grid(t, side)
	res := run(t, g, side, DefaultSLP(2), 3)
	if res.String() == "" {
		t.Error("empty result string")
	}
	if res.TotalMessages() == 0 || res.ControlMessages() == 0 || res.ControlBytes() == 0 {
		t.Error("zero traffic accounted")
	}
	if res.Nodes != side*side {
		t.Errorf("Nodes = %d", res.Nodes)
	}
}

func TestMultiAttackerCollectsEveryPath(t *testing.T) {
	side := 7
	g := grid(t, side)
	cfg := Default()
	cfg.AttackerCount = 3
	res := run(t, g, side, cfg, 1)
	if res.Attackers != 3 || len(res.AttackerPaths) != 3 {
		t.Fatalf("Attackers=%d paths=%d, want 3", res.Attackers, len(res.AttackerPaths))
	}
	if res.Strategy != "first-heard" {
		t.Errorf("Strategy = %q, want first-heard default", res.Strategy)
	}
	sink := topo.GridCentre(side)
	for i, p := range res.AttackerPaths {
		if len(p) == 0 || p[0] != sink {
			t.Errorf("attacker %d path %v does not start at the sink %d", i, p, sink)
		}
	}
	if res.Captured {
		if res.CaptureBy < 0 || res.CaptureBy >= 3 {
			t.Errorf("CaptureBy = %d out of range", res.CaptureBy)
		}
		last := res.AttackerPaths[res.CaptureBy]
		if last[len(last)-1] != topo.GridTopLeft() {
			t.Errorf("capturing attacker %d path %v does not end at the source", res.CaptureBy, last)
		}
	} else if res.CaptureBy != -1 {
		t.Errorf("CaptureBy = %d without capture, want -1", res.CaptureBy)
	}
}

// TestUnknownStrategyRejected: names are resolved at the campaign edge
// (see TestNamedStrategyMatchesLegacyDecision), so what reaches core is
// an entry; one with no factory, or a team below one attacker, fails
// validation and NewNetwork.
func TestUnknownStrategyRejected(t *testing.T) {
	cfg := Default()
	cfg.Strategy = attacker.Entry{Name: "teleport"}
	if err := cfg.Validate(); err == nil {
		t.Error("strategy without a factory validated")
	}
	if _, err := NewNetwork(grid(t, 5), 12, 0, cfg, 1); err == nil {
		t.Error("NewNetwork accepted a strategy without a factory")
	}
	for _, count := range []int{0, -1} {
		cfg = Default()
		cfg.AttackerCount = count
		if err := cfg.Validate(); err == nil {
			t.Errorf("attacker count %d validated", count)
		}
	}
}

func TestStrategiesRunEndToEnd(t *testing.T) {
	// Every named strategy must drive a full run without error; the
	// random-walk baseline exercises the rng plumbing, cautious the graph
	// binding, backtrack the period hooks.
	side := 7
	g := grid(t, side)
	for _, s := range []string{"patient", "backtrack", "random-walk", "cautious", "unvisited-first", "random-heard"} {
		cfg := Default()
		cfg.Strategy = must(attacker.ByName(s))
		cfg.Attacker.H = 2
		cfg.Attacker.R = 2
		cfg.AttackerCount = 2
		cfg.SharedHistory = true
		res := run(t, g, side, cfg, 1)
		if res.Strategy != s {
			t.Errorf("%s: result strategy = %q", s, res.Strategy)
		}
		if res.Attackers != 2 || len(res.AttackerPaths) != 2 {
			t.Errorf("%s: attackers = %d, paths = %d", s, res.Attackers, len(res.AttackerPaths))
		}
	}
}

// TestRunTerminatesUnderTotalLoss pins the bernoulli:1 semantics of the
// channel grammar: 100% channel loss is a legitimate stress
// scenario, not a config error. No frame is ever delivered, so no
// schedule can form and no capture can happen — but timers keep firing
// and the run is bounded by simulated time, so the DES terminates
// normally instead of wedging.
func TestRunTerminatesUnderTotalLoss(t *testing.T) {
	for _, mk := range []func() Config{Default, func() Config { return DefaultSLP(2) }} {
		cfg := mk()
		cfg.Channel = channel.Bernoulli{P: 1}
		res := run(t, grid(t, 5), 5, cfg, 1)
		if res.Captured {
			t.Errorf("captured under 100%% loss (%s)", cfg.Protocol.Name)
		}
		if res.ScheduleValid() {
			t.Errorf("schedule formed under 100%% loss (%s)", cfg.Protocol.Name)
		}
		if res.SourceDeliveries != 0 {
			t.Errorf("%d deliveries under 100%% loss (%s)", res.SourceDeliveries, cfg.Protocol.Name)
		}
	}
}

func TestPathCapValidation(t *testing.T) {
	cfg := Default()
	cfg.PathCap = PathRecordingOff
	if err := cfg.Validate(); err != nil {
		t.Errorf("PathRecordingOff rejected: %v", err)
	}
	cfg.PathCap = 7
	if err := cfg.Validate(); err != nil {
		t.Errorf("positive path cap rejected: %v", err)
	}
	cfg.PathCap = -2
	if err := cfg.Validate(); err == nil {
		t.Error("PathCap -2 validated")
	}
}

func TestPathCapPreservesOutcomeAndMoves(t *testing.T) {
	// Capping (or disabling) walk recording must change nothing but the
	// recorded paths: capture verdict, timing, hop counts and per-attacker
	// move totals all survive, and whatever IS recorded is a prefix of the
	// full walk.
	side := 7
	g := grid(t, side)
	base := Default()
	base.AttackerCount = 2
	full := run(t, g, side, base, 1)
	if len(full.AttackerMoves) != 2 {
		t.Fatalf("AttackerMoves = %v, want one entry per attacker", full.AttackerMoves)
	}
	for i, p := range full.AttackerPaths {
		if want := len(p) - 1; full.AttackerMoves[i] != want {
			t.Errorf("attacker %d: Moves=%d but full path has %d relocations",
				i, full.AttackerMoves[i], want)
		}
	}
	for name, cap := range map[string]int{"off": PathRecordingOff, "capped": 3} {
		cfg := base
		cfg.PathCap = cap
		res := run(t, g, side, cfg, 1)
		if res.Captured != full.Captured || res.CaptureAt != full.CaptureAt ||
			res.CapturePeriods != full.CapturePeriods || res.CaptureBy != full.CaptureBy {
			t.Errorf("%s: capture outcome changed: %+v vs full", name, res.Captured)
		}
		for i := range full.AttackerMoves {
			if res.AttackerMoves[i] != full.AttackerMoves[i] {
				t.Errorf("%s: attacker %d moves %d, want %d",
					name, i, res.AttackerMoves[i], full.AttackerMoves[i])
			}
		}
		wantLen := func(fullLen int) int {
			if cap == PathRecordingOff {
				return 1
			}
			return min(fullLen, cap)
		}
		for i, p := range res.AttackerPaths {
			fp := full.AttackerPaths[i]
			if len(p) != wantLen(len(fp)) {
				t.Fatalf("%s: attacker %d path %v, want first %d of %v", name, i, p, wantLen(len(fp)), fp)
			}
			for j := range p {
				if p[j] != fp[j] {
					t.Errorf("%s: attacker %d path %v is not a prefix of %v", name, i, p, fp)
				}
			}
		}
		if len(res.AttackerPath) != wantLen(len(full.AttackerPath)) {
			t.Errorf("%s: legacy AttackerPath %v, want prefix of %v", name, res.AttackerPath, full.AttackerPath)
		}
	}
}

func TestSlotExhaustionDoesNotLivelock(t *testing.T) {
	// Regression: when the slot space is too small for the topology, nodes
	// end up pinned at slot 0 while still colliding with 2-hop neighbours
	// (the update phase clamps forced slot drops at 0, so equal-zero slots
	// accumulate). The resolve action used to stay enabled but unable to
	// descend, spinning until the GCN step budget killed the process. A
	// small random geometric graph with 4 slots reproduces the pin-up on
	// every seed; the run must complete (reporting an invalid schedule)
	// rather than fail.
	side := math.Sqrt(60) * topo.DefaultSpacing
	g, err := topo.RandomGeometric(60, side, side, 2.2*topo.DefaultSpacing, 1)
	if err != nil {
		t.Fatalf("rgg: %v", err)
	}
	cfg := Default()
	cfg.Slots = 4
	net, err := NewNetwork(g, g.Nearest(topo.Point{X: side / 2, Y: side / 2}), 0, cfg, 1)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ScheduleValid() {
		t.Error("3-slot clique produced a valid schedule; the regression scenario no longer bites")
	}
}

// TestSlotExhaustionPinnedAtZero pins two 500-node random geometric
// graphs, built as the campaign's rgg topology builds them, on which
// slp-das runs out of slot space under Table I's 100 slots: the settled
// schedule keeps collisions, every one of them between nodes pushed down
// to slot 0, the floor the protocol clamps at.
func TestSlotExhaustionPinnedAtZero(t *testing.T) {
	fast := DefaultSLP(3)
	fast.FastCollisionResolve = true
	for _, tc := range []struct {
		name       string
		layout     uint64
		cfg        Config
		collisions int
	}{
		{"unit-decrement", 1<<8 | 9, DefaultSLP(3), 3},
		{"fast-resolve", 1<<8 | 3, fast, 1},
	} {
		const nodes = 500
		side := math.Sqrt(nodes) * topo.DefaultSpacing
		g, err := topo.RandomGeometric(nodes, side, side, 1.8*topo.DefaultSpacing, tc.layout)
		if err != nil {
			t.Fatalf("%s: rgg: %v", tc.name, err)
		}
		sink := g.Nearest(topo.Point{X: side / 2, Y: side / 2})
		net, err := NewNetwork(g, sink, g.HopFarthest(sink, 0), tc.cfg, 1)
		if err != nil {
			t.Fatalf("%s: NewNetwork: %v", tc.name, err)
		}
		res, err := net.Run()
		if err != nil {
			t.Fatalf("%s: Run: %v", tc.name, err)
		}
		if res.CollisionViolations != tc.collisions {
			t.Errorf("%s: %d collision violations, want %d", tc.name, res.CollisionViolations, tc.collisions)
		}
		for _, v := range schedule.CheckNonColliding(g, res.Assignment) {
			if v.Slot != 0 {
				t.Errorf("%s: collision off the floor: %v", tc.name, v)
			}
		}
		// The one-pass counts collect stores must be the lengths of the
		// lists the definitions' own checks give on the settled schedule.
		a := res.Assignment
		for _, c := range []struct {
			name      string
			got, want int
		}{
			{"weak", res.WeakViolations, len(schedule.CheckWeakDAS(g, a))},
			{"strong", res.StrongViolations, len(schedule.CheckStrongDAS(g, a))},
			{"collision", res.CollisionViolations, len(schedule.CheckNonColliding(g, a))},
			{"range", res.RangeViolations, len(schedule.CheckSlotRange(g, a, tc.cfg.Slots))},
		} {
			if c.got != c.want {
				t.Errorf("%s: %d %s violations, the list has %d", tc.name, c.got, c.name, c.want)
			}
		}
	}
}
