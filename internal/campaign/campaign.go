// Package campaign is the sweep engine above internal/experiment: it
// expands a declarative Spec — axes of topologies, protocols, search
// distances, attacker strengths, channels and collision settings —
// into the full Cartesian job matrix of experimental cells, executes every
// repeat of every cell through one shared bounded worker pool, and streams
// one summary Row per cell to pluggable sinks (JSONL, CSV) as cells
// complete; Run also returns every row in its Summary. The whole of the
// paper's evaluation (Figure 5, Table I defaults, the overhead claim) is
// one Spec; so are the scenario grids of
// the broader SLP literature (sector phantom routing, private aggregation
// surveys) that sweep attacker and topology parameters far wider.
//
// Determinism: cell c repeat r runs on seed BaseSeed + c·Repeats + r, so
// a campaign's output is a pure function of its Spec regardless of worker
// count or scheduling. Rows are emitted in cell-index order.
//
// That purity is what makes campaigns restartable and horizontally
// shardable: every row depends only on its cell's coordinates, never on
// which process computed it or which cells ran alongside. Spec.Skip
// resumes an interrupted campaign from the cells already durable in its
// output file (Spec.ScanResumable recovers them, tolerating a torn final
// line); Spec.Shard runs one deterministic stride slice of the
// matrix per process or machine; MergeJSONL reassembles shard outputs in
// canonical cell order. Sharded-then-merged, killed-then-resumed and
// single-process runs of one Spec are byte-identical.
package campaign

import (
	"fmt"

	"slpdas/internal/attacker"
	"slpdas/internal/channel"
	"slpdas/internal/core"
	"slpdas/internal/energy"
	"slpdas/internal/experiment"
	"slpdas/internal/fault"
	"slpdas/internal/protocol"
	"slpdas/internal/topo"
)

// Historical names for the paper's pair on the Protocols axis. The axis
// accepts any protocol registry name (see protocol.Protocols); these two
// resolve through the registry like the rest — SLPAware is the registry
// alias for protocol.NameSLPDAS, kept so pre-registry campaign files stay
// resumable.
const (
	Protectionless = protocol.NameProtectionless
	SLPAware       = protocol.AliasSLP
)

// ProtocolNames lists the canonical registry names accepted on the
// Protocols axis, sorted (the SLPAware alias also resolves).
func ProtocolNames() []string { return protocol.Names() }

// Spec declares a campaign: every non-empty axis slice multiplies the job
// matrix. Zero values select the paper's defaults (11×11 grid, both
// protocols, SD 3, the (1,0,1) attacker, ideal channel, no collisions).
type Spec struct {
	// GridSizes is the convenience topology axis: one square grid per
	// size, source top-left and sink centre as §VI-A. Default {11}.
	GridSizes []int
	// Topologies, when non-empty, replaces GridSizes as the topology axis
	// and admits non-grid layouts from internal/topo/builders.go.
	Topologies []TopologySpec
	// Protocols is the protocol axis. Default both protocols.
	Protocols []string
	// SearchDistances is the SD axis. It multiplies every protocol cell
	// (the coordinate is recorded but inert for protectionless DAS, so
	// the matrix stays a full Cartesian product). Default {3}.
	SearchDistances []int
	// Attackers is the (R, H, M) axis; Start is always the sink. Default
	// the paper's (1, 0, 1).
	Attackers []attacker.Params
	// Strategies is the attacker decision axis, by registry name (see
	// attacker.Strategies). Default the paper's first-heard.
	Strategies []string
	// AttackerCounts is the eavesdropper-team-size axis; capture is the
	// first of the team to reach the source. Default {1}.
	AttackerCounts []int
	// SharedHistories is the pooled-H-window axis. Default {false}.
	SharedHistories []bool
	// Channels is the physical-channel axis in the internal/channel
	// grammar: "ideal", "bernoulli:<p>", "rssi" or
	// "logdist:<n>:<sigma>[@sinr:<threshold>]" (log-distance path loss,
	// shadowing and SINR capture). Default {"ideal"}. Specs are
	// canonicalised through channel.Parse/Spec at Expand, and the
	// canonical string lands in the row's loss_model column.
	Channels []string
	// Collisions is the receiver-side collision axis. Default {false}.
	Collisions []bool
	// Faults is the fault-injection axis: specs in the fault.Parse
	// grammar. Each cell's plan is minted deterministically
	// from the spec and the cell's per-repeat seed. Default {"none"},
	// which keeps cell indices and seeds of fault-free campaigns
	// identical to builds that predate the axis.
	Faults []string
	// Energy is the per-node energy-accounting axis: specs in the
	// internal/energy grammar ("none",
	// "battery:<capacity>[:<tx>:<rx>:<idle>]"). Default {"none"}, which
	// keeps cell indices and seeds of energy-free campaigns identical to
	// builds that predate the axis; it nests innermost, after Faults.
	Energy []string

	// Repeats is the number of independent simulations per cell.
	// Default 10.
	Repeats int
	// BaseSeed anchors the campaign's seed space; see the package comment
	// for the per-cell layout.
	BaseSeed uint64
	// Workers bounds the total number of concurrently running simulations
	// across all cells (0 = GOMAXPROCS). Cells do not get pools of their
	// own, so a campaign never oversubscribes the machine.
	Workers int
	// Progress, when non-nil, is called after each executed cell's row has
	// been written to every sink, in cell order, from a single goroutine.
	// done is the 1-based matrix position of the cell just emitted and
	// total the full matrix size, so a resumed or sharded run reports its
	// absolute position; skipped cells produce no call.
	Progress func(done, total int, row Row)

	// Skip holds cells to omit: they are neither executed nor emitted,
	// but keep their place in the matrix, so the indices, seeds and row
	// bytes of every remaining cell are identical to a full run. This is
	// the resume primitive — feed it the set recovered by ScanResumable
	// and the appended output completes the original file.
	Skip map[int]bool
	// Shard selects one deterministic 1/Count slice of the cell matrix in
	// stride layout (cell c runs on shard c mod Count), so shards of a
	// heterogeneous matrix finish in near-equal time. The zero value runs
	// everything. Shard composes with Skip, and merges back with
	// MergeJSONL / cmd/slpmerge.
	Shard Shard
	// CheckpointEvery, when positive, flushes every sink after each N
	// emitted rows, bounding how much a crash can lose to the rows since
	// the last checkpoint.
	CheckpointEvery int
}

// Shard identifies one slice of a sharded campaign: shard Index of Count
// total. Count < 2 means no sharding (with Count == 1, Index must be 0).
type Shard struct {
	Index, Count int
}

// skipFunc validates the shard and folds Shard and Skip into one
// predicate.
func (s Spec) skipFunc() (func(cell int) bool, error) {
	sh := s.Shard
	if sh.Count < 0 {
		return nil, fmt.Errorf("campaign: shard count must be non-negative, got %d", sh.Count)
	}
	if sh.Count == 0 && sh.Index != 0 {
		// A nonzero index with the no-sharding count is always a mistake
		// (e.g. Shard{2, 0} from a mistyped "2/0"); running the full
		// matrix labelled as a shard would silently poison a later merge.
		return nil, fmt.Errorf("campaign: shard index %d with count 0 (no sharding); want index 0 or a positive count", sh.Index)
	}
	if sh.Count > 0 && (sh.Index < 0 || sh.Index >= sh.Count) {
		return nil, fmt.Errorf("campaign: shard index %d out of range [0, %d)", sh.Index, sh.Count)
	}
	return func(cell int) bool {
		return s.Skip[cell] || (sh.Count > 1 && cell%sh.Count != sh.Index)
	}, nil
}

func (s Spec) withDefaults() Spec {
	if len(s.GridSizes) == 0 {
		s.GridSizes = []int{11}
	}
	if len(s.Protocols) == 0 {
		s.Protocols = []string{Protectionless, SLPAware}
	}
	if len(s.SearchDistances) == 0 {
		s.SearchDistances = []int{3}
	}
	if len(s.Attackers) == 0 {
		s.Attackers = []attacker.Params{{R: 1, H: 0, M: 1}}
	}
	if len(s.Strategies) == 0 {
		s.Strategies = []string{attacker.DefaultStrategy}
	}
	if len(s.AttackerCounts) == 0 {
		s.AttackerCounts = []int{1}
	}
	if len(s.SharedHistories) == 0 {
		s.SharedHistories = []bool{false}
	}
	if len(s.Channels) == 0 {
		s.Channels = []string{"ideal"}
	}
	if len(s.Collisions) == 0 {
		s.Collisions = []bool{false}
	}
	if len(s.Faults) == 0 {
		s.Faults = []string{"none"}
	}
	if len(s.Energy) == 0 {
		s.Energy = []string{"none"}
	}
	if s.Repeats == 0 {
		s.Repeats = 10
	}
	return s
}

func (s Spec) topologyAxis() []TopologySpec {
	if len(s.Topologies) > 0 {
		return s.Topologies
	}
	axis := make([]TopologySpec, 0, len(s.GridSizes))
	for _, size := range s.GridSizes {
		axis = append(axis, TopologySpec{Kind: KindGrid, Size: size})
	}
	return axis
}

// Cell is one point of the expanded job matrix: the full coordinates plus
// the seed range its repeats run on.
type Cell struct {
	Index          int
	Topology       TopologySpec
	Protocol       string
	SearchDistance int
	Attacker       attacker.Params
	Strategy       string
	AttackerCount  int
	SharedHistory  bool
	LossModel      string // canonical channel spec (channel.Parse grammar)
	Collisions     bool
	Faults         string // canonical fault.Spec string ("none" = fault-free)
	Energy         string // canonical energy.Spec string ("none" = accounting off)
	Repeats        int
	BaseSeed       uint64 // repeat r runs on BaseSeed + r
}

func (c Cell) config() (core.Config, error) {
	cfg, err := BuildConfig(c.Protocol, c.SearchDistance, AttackerSetup{
		Params:        c.Attacker,
		Strategy:      c.Strategy,
		Count:         c.AttackerCount,
		SharedHistory: c.SharedHistory,
	}, c.LossModel, c.Collisions, c.Faults, c.Energy)
	if err != nil {
		return core.Config{}, err
	}
	// Rows never render attacker walks, so cells do not record them: at
	// 10⁵–10⁶ nodes a full walk is pure wasted memory per run.
	cfg.PathCap = core.PathRecordingOff
	return cfg, nil
}

// AttackerSetup groups the attacker-side coordinates of a cell: the
// (R, H, M) tuple, the decision strategy by registry name (empty =
// first-heard), the team size (0 = single) and whether the team pools
// one H-window.
type AttackerSetup struct {
	Params        attacker.Params
	Strategy      string
	Count         int
	SharedHistory bool
}

// BuildConfig maps one cell's coordinates — protocol name, search
// distance, attacker setup, channel spec, collisions, fault spec, energy
// spec — onto a validated core.Config. It is the single protocol-name
// switch shared by the campaign engine and the slpdas facade.
// channelSpec uses the internal/channel grammar (which subsumes the old
// loss-model syntax); faults the fault.Parse grammar; energySpec the
// energy.Parse grammar. "" and "none" mean off for the latter two.
func BuildConfig(protoName string, searchDistance int, atk AttackerSetup, channelSpec string, collisions bool, faults, energySpec string) (core.Config, error) {
	fam, err := protocol.ByName(protoName)
	if err != nil {
		return core.Config{}, fmt.Errorf("campaign: %w", err)
	}
	cfg := core.Default()
	cfg.Protocol = fam.Name()
	// The SD coordinate only lands in the config for families it
	// parameterises; others keep the Table I default, exactly as the
	// pre-registry switch left protectionless untouched.
	if fam.UsesSearchDistance() {
		cfg.SearchDistance = searchDistance
	}
	cfg.Attacker = atk.Params
	cfg.Strategy = atk.Strategy
	cfg.AttackerCount = atk.Count
	cfg.SharedHistory = atk.SharedHistory
	cfg.Collisions = collisions
	ch, err := channel.Parse(channelSpec)
	if err != nil {
		return core.Config{}, fmt.Errorf("campaign: %w", err)
	}
	cfg.Channel = ch.Spec()
	fs, err := fault.Parse(faults)
	if err != nil {
		return core.Config{}, fmt.Errorf("campaign: %w", err)
	}
	cfg.Faults = fs
	es, err := energy.Parse(energySpec)
	if err != nil {
		return core.Config{}, fmt.Errorf("campaign: %w", err)
	}
	cfg.Energy = es
	if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// Expand materialises the job matrix: the Cartesian product of all axes,
// with defaults applied, in a deterministic order (topology outermost,
// energy innermost). Repeats and the per-cell seed ranges are fixed
// here, so Expand alone determines every seed a campaign will run.
// Channel, fault and energy axis values are canonicalised through their
// Parse/String round trips here, so cells (and rows, and resume
// verification) always carry the canonical spelling regardless of how
// the axis was written.
func (s Spec) Expand() ([]Cell, error) {
	s = s.withDefaults()
	if s.Repeats < 0 {
		return nil, fmt.Errorf("campaign: repeats must be positive, got %d", s.Repeats)
	}
	channelAxis := make([]string, len(s.Channels))
	for i, c := range s.Channels {
		m, err := channel.Parse(c)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		channelAxis[i] = m.Spec()
	}
	faultAxis := make([]string, len(s.Faults))
	for i, f := range s.Faults {
		fs, err := fault.Parse(f)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		faultAxis[i] = fs.String()
	}
	energyAxis := make([]string, len(s.Energy))
	for i, e := range s.Energy {
		es, err := energy.Parse(e)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		energyAxis[i] = es.String()
	}
	var cells []Cell
	for _, top := range s.topologyAxis() {
		for _, proto := range s.Protocols {
			if _, err := protocol.ByName(proto); err != nil {
				return nil, fmt.Errorf("campaign: %w", err)
			}
			for _, sd := range s.SearchDistances {
				for _, atk := range s.Attackers {
					for _, strat := range s.Strategies {
						for _, count := range s.AttackerCounts {
							for _, sharedH := range s.SharedHistories {
								for _, loss := range channelAxis {
									for _, coll := range s.Collisions {
										for _, flt := range faultAxis {
											for _, en := range energyAxis {
												idx := len(cells)
												cells = append(cells, Cell{
													Index:          idx,
													Topology:       top,
													Protocol:       proto,
													SearchDistance: sd,
													Attacker:       atk,
													Strategy:       strat,
													AttackerCount:  count,
													SharedHistory:  sharedH,
													LossModel:      loss,
													Collisions:     coll,
													Faults:         flt,
													Energy:         en,
													Repeats:        s.Repeats,
													BaseSeed:       s.BaseSeed + uint64(idx)*uint64(s.Repeats),
												})
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// Summary is the in-memory outcome of a campaign. Cells counts the full
// matrix; Rows holds only the cells this run executed (all of them unless
// Skip or Shard filtered some out, counted by Skipped).
type Summary struct {
	Cells    int
	Skipped  int // cells omitted by Skip / Shard
	Rows     []Row
	Failures int // individual runs that errored, across all cells
}

// runner executes one repeat; tests substitute it to instrument the pool.
type runner func(g *topo.Graph, sink, source topo.NodeID, cfg core.Config, seed uint64) (*core.Result, error)

// Run expands the spec and executes every cell not excluded by Skip or
// Shard, streaming one Row per executed cell to each sink in cell-index
// order as results become available; Summary.Rows collects the same rows.
// Failed runs are counted per row (and in Summary.Failures); the first
// run error is returned alongside the summary of everything that
// completed, mirroring experiment.Run's convention.
//
// Execution goes through experiment.Engine: one bounded worker pool over
// every (cell, repeat) job, each worker keeping one network slot that
// Network.Reset rewinds between jobs and that is rewired only when the
// topology changes (the outermost axis, so rarely). Topologies are
// memoised across campaigns (see resolve). Each cell is reduced by a
// streaming repeat-ordered fold that frees every Result as it folds, so
// rows remain a pure function of the Spec regardless of worker count,
// network reuse or cache warmth, and a cell's memory is O(workers)
// Results instead of O(repeats).
func Run(spec Spec, sinks ...Sink) (*Summary, error) {
	return run(spec, nil, sinks...)
}

func run(spec Spec, exec runner, sinks ...Sink) (*Summary, error) {
	spec = spec.withDefaults()
	cells, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if len(cells) == 0 {
		return &Summary{}, nil
	}
	skip, err := spec.skipFunc()
	if err != nil {
		return nil, err
	}
	sum := &Summary{Cells: len(cells)}

	// Resolve every selected cell's topology and config up front so a bad
	// axis value fails before any simulation starts. Topologies are
	// memoised process-wide by spec (graphs are immutable): cells share
	// them across the pool, and successive campaigns share them across
	// calls. Skipped cells stay unresolved — a resume that has most of a
	// huge matrix complete, or one shard of many, pays setup only for the
	// cells it will actually run. Each selected cell keeps its own seed
	// range, so skipped cells never shift another cell's seeds.
	var selected []Cell
	var specs []experiment.Spec
	for i, c := range cells {
		if skip(i) {
			sum.Skipped++
			continue
		}
		bt, err := c.Topology.resolve()
		if err != nil {
			return nil, err
		}
		cfg, err := c.config()
		if err != nil {
			return nil, err
		}
		selected = append(selected, c)
		specs = append(specs, experiment.Spec{
			GridSize: c.Topology.gridSize(),
			Topology: bt.g,
			Sink:     bt.sink,
			Source:   bt.source,
			Config:   cfg,
			Repeats:  c.Repeats,
			BaseSeed: c.BaseSeed,
		})
	}
	if len(selected) == 0 {
		return sum, nil
	}

	var firstErr error
	emitted := 0
	err = experiment.Engine{Workers: spec.Workers, Exec: exec}.Run(specs, func(i int, agg *experiment.Aggregate, runErr error) error {
		c := selected[i]
		if runErr != nil && firstErr == nil {
			firstErr = fmt.Errorf("campaign: cell %d: %w", c.Index, runErr)
		}
		row := makeRow(c, specs[i].Topology, agg)
		sum.Rows = append(sum.Rows, row)
		sum.Failures += agg.Failures
		for _, snk := range sinks {
			if err := snk.Write(row); err != nil {
				// A sink failure is fatal: the stream's contract is one row
				// per executed cell, so there is no point finishing.
				return fmt.Errorf("campaign: sink: %w", err)
			}
		}
		emitted++
		if spec.CheckpointEvery > 0 && emitted%spec.CheckpointEvery == 0 {
			for _, snk := range sinks {
				if err := snk.Flush(); err != nil {
					return fmt.Errorf("campaign: checkpoint: %w", err)
				}
			}
		}
		if spec.Progress != nil {
			spec.Progress(c.Index+1, len(cells), row)
		}
		return nil
	})
	if err != nil {
		return sum, err
	}
	return sum, firstErr
}
