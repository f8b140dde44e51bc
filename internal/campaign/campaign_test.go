package campaign

import (
	"bytes"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"slpdas/internal/attacker"
	"slpdas/internal/core"
	"slpdas/internal/protocol"
	"slpdas/internal/topo"
)

func TestExpandDefaults(t *testing.T) {
	cells, err := Spec{}.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	// Defaults: 1 size × 2 protocols × 1 SD × 1 attacker × 1 loss × 1 coll.
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	if cells[0].Protocol != protocol.NameProtectionless || cells[1].Protocol != protocol.AliasSLP {
		t.Errorf("protocol order = %q, %q", cells[0].Protocol, cells[1].Protocol)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
		if c.Topology.Label() != "grid-11x11" {
			t.Errorf("cell %d topology = %q", i, c.Topology.Label())
		}
		if c.Repeats != 10 {
			t.Errorf("cell %d repeats = %d", i, c.Repeats)
		}
	}
}

func TestExpandFullMatrix(t *testing.T) {
	spec := Spec{
		GridSizes:       []int{7, 11},
		Protocols:       []string{protocol.NameProtectionless, protocol.AliasSLP},
		SearchDistances: []int{1, 3},
		Attackers:       []attacker.Params{{R: 1, M: 1}, {R: 2, M: 2}},
		Channels:        []string{"ideal", "bernoulli:0.1"},
		Collisions:      []bool{false, true},
		Repeats:         5,
		BaseSeed:        100,
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if want := 2 * 2 * 2 * 2 * 2 * 2; len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	// Seed ranges are disjoint and contiguous: cell i starts at 100 + 5i.
	for i, c := range cells {
		if want := uint64(100 + 5*i); c.BaseSeed != want {
			t.Errorf("cell %d BaseSeed = %d, want %d", i, c.BaseSeed, want)
		}
	}
	// Outermost axis is topology: the first half is all grid-7x7.
	for i := 0; i < 32; i++ {
		if cells[i].Topology.Size != 7 {
			t.Errorf("cell %d size = %d, want 7", i, cells[i].Topology.Size)
		}
	}
	// Innermost is collisions: it alternates.
	if cells[0].Collisions || !cells[1].Collisions {
		t.Errorf("collisions not innermost: %v, %v", cells[0].Collisions, cells[1].Collisions)
	}
}

func TestExpandRejectsUnknownProtocol(t *testing.T) {
	if _, err := (Spec{Protocols: []string{"bogus"}}).Expand(); err == nil {
		t.Error("bogus protocol accepted")
	}
}

// TestRunFailsFastOnBadAxis: invalid axis values must error during
// resolution, before any simulation job runs.
func TestRunFailsFastOnBadAxis(t *testing.T) {
	exec := func(g *topo.Graph, sink, source topo.NodeID, cfg core.Config, seed uint64) (*core.Result, error) {
		t.Error("job executed despite invalid spec")
		return nil, nil
	}
	for name, spec := range map[string]Spec{
		"attacker R=0": {GridSizes: []int{5}, Attackers: []attacker.Params{{R: 0, M: 1}}},
		"bad loss":     {GridSizes: []int{5}, Channels: []string{"bernoulli:2"}},
		"sd 0 for slp": {GridSizes: []int{5}, Protocols: []string{protocol.AliasSLP}, SearchDistances: []int{0}},
	} {
		if _, err := run(spec, exec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTopologyBuild(t *testing.T) {
	for _, tc := range []struct {
		spec  TopologySpec
		label string
		nodes int
	}{
		{TopologySpec{Kind: KindGrid, Size: 5}, "grid-5x5", 25},
		{TopologySpec{Kind: KindLine, Size: 9}, "line-9", 9},
		{TopologySpec{Kind: KindRing, Size: 12}, "ring-12", 12},
		{TopologySpec{Kind: KindRGG, Size: 20, Seed: 7}, "rgg-20#7", 20},
	} {
		if got := tc.spec.Label(); got != tc.label {
			t.Errorf("Label() = %q, want %q", got, tc.label)
		}
		bt, err := tc.spec.build()
		if err != nil {
			t.Fatalf("build %s: %v", tc.label, err)
		}
		if bt.g.Len() != tc.nodes {
			t.Errorf("%s: %d nodes, want %d", tc.label, bt.g.Len(), tc.nodes)
		}
		if !bt.g.Valid(bt.sink) || !bt.g.Valid(bt.source) {
			t.Errorf("%s: invalid sink/source %d/%d", tc.label, bt.sink, bt.source)
		}
		if bt.sink == bt.source {
			t.Errorf("%s: sink == source == %d", tc.label, bt.sink)
		}
	}
	if _, err := (TopologySpec{Kind: "torus", Size: 5}).build(); err == nil {
		t.Error("unknown kind accepted")
	}
}

// stubRun returns a canned successful result without simulating.
func stubRun(g *topo.Graph, _, _ topo.NodeID, cfg core.Config, seed uint64) (*core.Result, error) {
	return &core.Result{Seed: seed, Nodes: g.Len(), Captured: seed%2 == 0}, nil
}

// TestCellsRunWithPathRecordingOff: rows never render attacker walks, so
// every repeat of every cell runs with walk recording off, whatever the
// protocol or attacker team.
func TestCellsRunWithPathRecordingOff(t *testing.T) {
	var jobs atomic.Int32
	exec := func(g *topo.Graph, sink, source topo.NodeID, cfg core.Config, seed uint64) (*core.Result, error) {
		jobs.Add(1)
		if cfg.PathCap != core.PathRecordingOff {
			t.Errorf("seed %d ran with PathCap %d, want core.PathRecordingOff", seed, cfg.PathCap)
		}
		return stubRun(g, sink, source, cfg, seed)
	}
	spec := Spec{GridSizes: []int{5}, AttackerCounts: []int{1, 2}, Repeats: 3}
	if _, err := run(spec, exec); err != nil {
		t.Fatalf("run: %v", err)
	}
	if n := jobs.Load(); n != 12 {
		t.Errorf("%d jobs ran, want 12", n)
	}
}

func TestWorkerPoolBounded(t *testing.T) {
	var inFlight, peak atomic.Int32
	exec := func(g *topo.Graph, sink, source topo.NodeID, cfg core.Config, seed uint64) (*core.Result, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond) // widen the overlap window
		inFlight.Add(-1)
		return stubRun(g, sink, source, cfg, seed)
	}
	const workers = 3
	spec := Spec{GridSizes: []int{5, 7}, SearchDistances: []int{1, 2}, Repeats: 6, Workers: workers}
	sum, err := run(spec, exec)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if sum.Cells != 8 || len(sum.Rows) != 8 {
		t.Fatalf("cells = %d, rows = %d", sum.Cells, len(sum.Rows))
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds Workers=%d", p, workers)
	}
	if p := peak.Load(); p < 2 {
		t.Errorf("peak concurrency %d: pool never ran jobs in parallel", p)
	}
}

func TestRunStreamsRowsInCellOrder(t *testing.T) {
	var progress []int
	spec := Spec{
		GridSizes: []int{5},
		Protocols: []string{protocol.NameProtectionless, protocol.AliasSLP},
		Repeats:   3,
		Progress: func(done, total int, row Row) {
			if total != 2 {
				t.Errorf("total = %d", total)
			}
			progress = append(progress, done)
		},
	}
	sum, err := run(spec, stubRun)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rows := sum.Rows
	if len(rows) != 2 || sum.Cells != 2 {
		t.Fatalf("rows = %d, cells = %d", len(rows), sum.Cells)
	}
	for i, r := range rows {
		if r.Cell != i {
			t.Errorf("row %d is cell %d", i, r.Cell)
		}
		if r.Runs != 3 || r.Failures != 0 {
			t.Errorf("row %d: runs=%d failures=%d", i, r.Runs, r.Failures)
		}
	}
	if len(progress) != 2 || progress[0] != 1 || progress[1] != 2 {
		t.Errorf("progress calls = %v", progress)
	}
}

func TestRunCountsFailures(t *testing.T) {
	boom := errors.New("boom")
	exec := func(g *topo.Graph, sink, source topo.NodeID, cfg core.Config, seed uint64) (*core.Result, error) {
		if seed%3 == 0 {
			return nil, boom
		}
		return stubRun(g, sink, source, cfg, seed)
	}
	sum, err := run(Spec{GridSizes: []int{5}, Protocols: []string{protocol.NameProtectionless}, Repeats: 6}, exec)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if sum.Failures != 2 {
		t.Errorf("Failures = %d, want 2 (seeds 0 and 3)", sum.Failures)
	}
	if rows := sum.Rows; len(rows) != 1 || rows[0].Failures != 2 || rows[0].Runs != 4 {
		t.Errorf("rows = %+v", rows)
	}
}

// TestCampaignSimulates runs a real (tiny) campaign end to end through the
// simulator, checking the rows carry live summary data.
func TestCampaignSimulates(t *testing.T) {
	sum, err := Run(Spec{
		GridSizes:       []int{5},
		SearchDistances: []int{2},
		Repeats:         3,
		BaseSeed:        1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Failures != 0 {
		t.Fatalf("failures: %d", sum.Failures)
	}
	rows := sum.Rows
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Nodes != 25 || r.Runs != 3 || r.ControlMessages <= 0 || r.ScheduleValidRatio != 1 {
			t.Errorf("implausible row: %+v", r)
		}
	}
	if slp := rows[1]; slp.Protocol != protocol.AliasSLP || slp.ChangedNodes <= 0 {
		t.Errorf("SLP row changed no slots: %+v", rows[1])
	}
}

// TestDeterminism re-runs the same campaign and requires byte-identical
// JSONL output — the property that makes campaigns diffable across runs.
// The collision axis is swept so the pooled frame events and collision
// windows in internal/radio are exercised under concurrent workers: event
// and frame pools are per-simulator, so recycling must never leak state
// across runs or depend on worker scheduling.
func TestDeterminism(t *testing.T) {
	spec := Spec{
		GridSizes:       []int{5, 7},
		SearchDistances: []int{1, 2},
		Collisions:      []bool{false, true},
		Repeats:         2,
		BaseSeed:        42,
	}
	render := func(workers int) []byte {
		var buf bytes.Buffer
		s := spec
		s.Workers = workers
		sink := NewJSONL(&buf)
		if _, err := Run(s, sink); err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return buf.Bytes()
	}
	a, b := render(1), render(4)
	if len(a) == 0 {
		t.Fatal("no output rendered")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("output differs between 1 and 4 workers:\n%s\nvs\n%s", a, b)
	}
}

func TestExpandStrategyAndTeamAxes(t *testing.T) {
	spec := Spec{
		GridSizes:       []int{5},
		Protocols:       []string{protocol.NameProtectionless},
		Strategies:      []string{"first-heard", "cautious"},
		AttackerCounts:  []int{1, 3},
		SharedHistories: []bool{false, true},
		Repeats:         2,
		BaseSeed:        10,
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if want := 2 * 2 * 2; len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	// Strategy is outermost of the three new axes, shared-history innermost.
	if cells[0].Strategy != "first-heard" || cells[4].Strategy != "cautious" {
		t.Errorf("strategy order: %q, %q", cells[0].Strategy, cells[4].Strategy)
	}
	if cells[0].SharedHistory || !cells[1].SharedHistory {
		t.Errorf("shared-history not innermost of the attacker axes")
	}
	if cells[0].AttackerCount != 1 || cells[2].AttackerCount != 3 {
		t.Errorf("attacker counts: %d, %d", cells[0].AttackerCount, cells[2].AttackerCount)
	}
	// Seed layout is still BaseSeed + cell·Repeats.
	for i, c := range cells {
		if want := uint64(10 + 2*i); c.BaseSeed != want {
			t.Errorf("cell %d BaseSeed = %d, want %d", i, c.BaseSeed, want)
		}
	}
}

// TestExpandResolvesTeamDefaults: an empty strategy and a team size of 0
// expand to the cells their runs report — first-heard and one attacker —
// at the indices and seeds the explicit spelling gets.
func TestExpandResolvesTeamDefaults(t *testing.T) {
	spec := Spec{GridSizes: []int{5}, Strategies: []string{""}, AttackerCounts: []int{0}, Repeats: 3, BaseSeed: 7}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	explicit := spec
	explicit.Strategies, explicit.AttackerCounts = []string{attacker.DefaultStrategy}, []int{1}
	want, err := explicit.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if !reflect.DeepEqual(cells, want) {
		t.Errorf("default spelling expands to\n%+v\nwant\n%+v", cells, want)
	}
	for i, c := range cells {
		if c.Strategy != "first-heard" || c.AttackerCount != 1 {
			t.Errorf("cell %d: strategy %q, team %d, want first-heard, 1", i, c.Strategy, c.AttackerCount)
		}
		if c.Index != i || c.BaseSeed != 7+uint64(3*i) {
			t.Errorf("cell %d: index %d, base seed %d", i, c.Index, c.BaseSeed)
		}
	}
}

func TestExpandRejectsUnknownStrategy(t *testing.T) {
	exec := func(g *topo.Graph, sink, source topo.NodeID, cfg core.Config, seed uint64) (*core.Result, error) {
		t.Error("job executed despite invalid strategy")
		return nil, nil
	}
	if _, err := run(Spec{GridSizes: []int{5}, Strategies: []string{"teleport"}}, exec); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestStrategyAxisDeterminism pins the acceptance criterion: a campaign
// sweeping the new strategy × attackers axes is byte-identical across
// worker counts.
func TestStrategyAxisDeterminism(t *testing.T) {
	spec := Spec{
		GridSizes:       []int{5},
		Protocols:       []string{protocol.NameProtectionless},
		Strategies:      []string{"first-heard", "backtrack", "random-walk"},
		AttackerCounts:  []int{1, 2},
		SharedHistories: []bool{false, true},
		Attackers:       []attacker.Params{{R: 1, H: 2, M: 1}},
		Repeats:         2,
		BaseSeed:        42,
	}
	render := func(workers int) []byte {
		var buf bytes.Buffer
		s := spec
		s.Workers = workers
		sink := NewJSONL(&buf)
		if _, err := Run(s, sink); err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return buf.Bytes()
	}
	a, b := render(1), render(4)
	if !bytes.Equal(a, b) {
		t.Errorf("output differs between 1 and 4 workers:\n%s\nvs\n%s", a, b)
	}
	rows, _, err := ReadRows(bytes.NewReader(a), "jsonl")
	if err != nil {
		t.Fatalf("ReadRows: %v", err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	if rows[0].Strategy != "first-heard" || rows[0].Attackers != 1 {
		t.Errorf("row 0 coordinates: %+v", rows[0])
	}
}

// TestIntraCellParallelismLargeRGGDeterministic pins the intra-cell
// reduction on a cell big enough that repeats genuinely interleave: one
// 600-node random geometric cell whose repeats are partitioned across
// the pool differently at every worker count, folded by the index-ordered
// cellState reducer. The rows — aggregates folded strictly in repeat
// order — must be byte-identical at 1, 2 and 4 workers. This is also the
// cell the race CI job drives: a 600-node graph keeps thousands of
// arena/pool interactions under the race detector without the Table-I
// config making the job take minutes.
func TestIntraCellParallelismLargeRGGDeterministic(t *testing.T) {
	size := 600
	if testing.Short() {
		size = 250
	}
	spec := Spec{
		Topologies: []TopologySpec{{Kind: KindRGG, Size: size, Seed: 3}},
		Protocols:  []string{protocol.NameProtectionless},
		Repeats:    8,
		BaseSeed:   9,
	}
	render := func(workers int) []byte {
		var buf bytes.Buffer
		s := spec
		s.Workers = workers
		sink := NewJSONL(&buf)
		if _, err := Run(s, sink); err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return buf.Bytes()
	}
	base := render(1)
	rows, _, err := ReadRows(bytes.NewReader(base), "jsonl")
	if err != nil {
		t.Fatalf("ReadRows: %v", err)
	}
	if len(rows) != 1 || rows[0].Repeats != 8 {
		t.Fatalf("want one 8-repeat row, got %+v", rows)
	}
	for _, workers := range []int{2, 4} {
		if got := render(workers); !bytes.Equal(base, got) {
			t.Errorf("workers=%d output differs from workers=1:\n%s\nvs\n%s", workers, got, base)
		}
	}
}
