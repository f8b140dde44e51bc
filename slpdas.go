package slpdas

import (
	"slpdas/internal/attacker"
	"slpdas/internal/campaign"
	"slpdas/internal/core"
	"slpdas/internal/experiment"
	"slpdas/internal/protocol"
)

// Protocol selects the routing family to simulate, by name (see Protocols
// for the full list).
type Protocol string

// The routing families; the names are shared with the campaign engine's
// protocol axis and the internal/protocol table.
const (
	// Protectionless is the baseline DAS of Figure 2.
	Protectionless Protocol = protocol.NameProtectionless
	// SLPAware is the 3-phase SLP-aware DAS of Figures 2-4 ("slp", the
	// alias of SLPDAS).
	SLPAware Protocol = protocol.AliasSLP
	// SLPDAS is the canonical name of the SLP-aware DAS.
	SLPDAS Protocol = protocol.NameSLPDAS
	// Phantom is sector phantom routing (PSSPR): a directed random walk to
	// a phantom source, then shortest-path routing to the sink.
	Phantom Protocol = protocol.NamePhantom
	// FakeSource is fake-source scheduling: a decoy backbone away from the
	// real source broadcasting fake DATA early in each period.
	FakeSource Protocol = protocol.NameFakeSource
	// Tier is tier-based intermediary routing: each message detours via a
	// random node of a random sink-distance tier.
	Tier Protocol = protocol.NameTier
)

// SimConfig configures a batch of simulation runs through the facade.
// Zero values select the paper's defaults (Table I, 11×11 grid, the
// (1,0,1,sink,first-heard) attacker, ideal channel).
type SimConfig struct {
	GridSize       int      // grid side; default 11
	Protocol       Protocol // routing family by name; default Protectionless
	SearchDistance int      // SD; default 3 (slp-das search / phantom walk length)
	Repeats        int      // default 1
	Seed           uint64   // base seed; run r uses Seed + r
	AttackerR      int      // default 1
	AttackerH      int      // default 0
	AttackerM      int      // default 1
	// Strategy is the attacker decision behaviour by name (see
	// Strategies); default "first-heard", the paper's D.
	Strategy string
	// Attackers is the eavesdropper team size; capture is the first of
	// the team to reach the source. Default 1.
	Attackers int
	// SharedHistory pools one H-window across the team.
	SharedHistory bool
	// LossModel is the channel spec: "ideal" (default), "bernoulli:<p>",
	// "rssi" or "logdist:<n>:<sigma>[@sinr:<threshold>]" — log-distance
	// path loss with per-link shadowing, optionally with SINR capture
	// replacing the binary collision window.
	LossModel string
	// Collisions enables receiver-side collision corruption.
	Collisions bool
	// Faults is the deterministic fault-injection spec in the fault.Parse
	// grammar; "none" (the default) injects nothing. The plan is a pure
	// function of (spec, seed).
	Faults string
	// Energy is the per-node energy model: "none" (default) or
	// "battery:<capacity>[:<tx>:<rx>:<idle>]" in mJ — nodes that exhaust
	// their budget crash-stop permanently.
	Energy  string
	Workers int // parallel runs; default GOMAXPROCS
}

func (c SimConfig) withDefaults() SimConfig {
	if c.GridSize == 0 {
		c.GridSize = 11
	}
	if c.Protocol == "" {
		c.Protocol = Protectionless
	}
	if c.SearchDistance == 0 {
		c.SearchDistance = 3
	}
	if c.Repeats == 0 {
		c.Repeats = 1
	}
	if c.AttackerR == 0 {
		c.AttackerR = 1
	}
	if c.AttackerM == 0 {
		c.AttackerM = 1
	}
	if c.LossModel == "" {
		c.LossModel = "ideal"
	}
	return c
}

func (c SimConfig) coreConfig() (core.Config, error) {
	return campaign.BuildConfig(string(c.Protocol), c.SearchDistance,
		campaign.AttackerSetup{
			Params:        attacker.Params{R: c.AttackerR, H: c.AttackerH, M: c.AttackerM},
			Strategy:      c.Strategy,
			Count:         c.Attackers,
			SharedHistory: c.SharedHistory,
		},
		c.LossModel, c.Collisions, c.Faults, c.Energy)
}

// ProtocolInfo describes one routing family.
type ProtocolInfo struct {
	Name    string
	Summary string
}

// Protocols lists the routing families, sorted by name — the
// values accepted by SimConfig.Protocol and the campaign Protocols axis.
func Protocols() []ProtocolInfo {
	infos := protocol.Protocols()
	out := make([]ProtocolInfo, len(infos))
	for i, in := range infos {
		out[i] = ProtocolInfo{Name: in.Name, Summary: in.Summary}
	}
	return out
}

// StrategyInfo describes one attacker strategy.
type StrategyInfo struct {
	Name    string
	Summary string
}

// Strategies lists the attacker strategies, sorted by name —
// the values accepted by SimConfig.Strategy and the campaign Strategies
// axis.
func Strategies() []StrategyInfo {
	infos := attacker.Strategies()
	out := make([]StrategyInfo, len(infos))
	for i, in := range infos {
		out[i] = StrategyInfo{Name: in.Name, Summary: in.Summary}
	}
	return out
}

// CaptureSummary is the aggregate outcome of a batch of runs.
type CaptureSummary struct {
	Protocol           Protocol
	GridSize           int
	Runs               int
	Captures           int
	CaptureRatio       float64 // in [0, 1]
	CaptureRatioCI95   float64 // half-width
	MeanCapturePeriods float64 // over captured runs
	ScheduleValidRatio float64
	ControlMessages    float64 // mean per run
	ControlBytes       float64 // mean per run
	ChangedNodes       float64 // mean per run (SLP)
}

// Run executes cfg.Repeats independent simulations and aggregates them.
func Run(cfg SimConfig) (CaptureSummary, error) {
	cfg = cfg.withDefaults()
	coreCfg, err := cfg.coreConfig()
	if err != nil {
		return CaptureSummary{}, err
	}
	agg, err := experiment.Run(experiment.Spec{
		GridSize: cfg.GridSize,
		Config:   coreCfg,
		Repeats:  cfg.Repeats,
		BaseSeed: cfg.Seed,
		Workers:  cfg.Workers,
	})
	if err != nil {
		return CaptureSummary{}, err
	}
	return CaptureSummary{
		Protocol:           cfg.Protocol,
		GridSize:           cfg.GridSize,
		Runs:               agg.CaptureRatio.Trials,
		Captures:           agg.CaptureRatio.Successes,
		CaptureRatio:       agg.CaptureRatio.Value(),
		CaptureRatioCI95:   agg.CaptureRatio.CI95(),
		MeanCapturePeriods: agg.CapturePeriods.Mean,
		ScheduleValidRatio: agg.ScheduleValid.Value(),
		ControlMessages:    agg.ControlMessages.Mean,
		ControlBytes:       agg.ControlBytes.Mean,
		ChangedNodes:       agg.ChangedNodes.Mean,
	}, nil
}

// RunCampaign expands a declarative campaign.Spec into its full Cartesian
// job matrix (topologies × protocols × search distances × attackers ×
// channels × collisions × faults × energy) and executes every cell
// through one shared worker pool, streaming a summary row per cell to the
// given sinks as cells complete; the returned Summary holds the same rows.
// The whole of the paper's evaluation is one such spec; see cmd/slpsweep
// for the command-line front end and examples/campaign for reproducing
// Figure 5 this way.
//
// Campaigns are restartable and horizontally shardable: Spec.Skip resumes
// an interrupted campaign from the cells already durable in its output
// (Spec.ScanResumable recovers and verifies them, tolerating a torn final
// line), Spec.Shard runs one deterministic slice
// of the matrix per process, and campaign.MergeJSONL (cmd/slpmerge)
// reassembles shard outputs. All three paths produce byte-identical rows
// for the same Spec; Spec.CheckpointEvery bounds how much of a long run a
// crash can cost.
func RunCampaign(spec campaign.Spec, sinks ...campaign.Sink) (*campaign.Summary, error) {
	return campaign.Run(spec, sinks...)
}

// Figure5 reproduces Figure 5 for the given search distance: capture
// ratio vs network size for both protocols, rendered as a table.
func Figure5(searchDistance, repeats int, seed uint64, sizes ...int) (string, *experiment.Figure5, error) {
	fig, err := experiment.RunFigure5(experiment.Figure5Spec{
		GridSizes:      sizes,
		SearchDistance: searchDistance,
		Repeats:        repeats,
		BaseSeed:       seed,
	})
	if err != nil {
		return "", nil, err
	}
	return fig.Table().String(), fig, nil
}

// TableI renders the paper's parameter table from the live defaults.
func TableI() string {
	return experiment.TableI().String()
}

// Overhead reproduces the message-overhead comparison on one grid size.
func Overhead(gridSize, searchDistance, repeats int, seed uint64) (string, *experiment.OverheadComparison, error) {
	o, err := experiment.RunOverhead(gridSize, searchDistance, repeats, seed, 0)
	if err != nil {
		return "", nil, err
	}
	return o.Table().String(), o, nil
}
