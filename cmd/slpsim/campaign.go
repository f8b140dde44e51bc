package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"slpdas/internal/attacker"
	"slpdas/internal/campaign"
	"slpdas/internal/fault"
	"slpdas/internal/protocol"
)

// runCampaign runs a full experimental campaign, the Cartesian product of
// the topology, protocol, search-distance, attacker, channel, collision,
// fault and energy axes, through one shared worker pool, streaming one
// row per cell to a JSONL or CSV sink. The same flags and seed give
// byte-identical rows whatever -workers is.
//
// -resume scans -out for completed cells, drops a torn final line and
// appends only the missing rows, so the finished file equals an
// uninterrupted run; a file whose rows belong to other flags, or repeat or
// reorder cells, is refused with exit 1. -shard i/n runs the i-th of n
// stride slices of the cell matrix; merge reassembles the shard outputs.
func runCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	sizes := fs.String("sizes", "11", "comma-separated grid sides for the topology axis")
	topologies := fs.String("topologies", "", "explicit topology axis overriding -sizes: grid, line:<n>, ring:<n>, rgg:<n>#<seed> (comma-separated; plain \"grid\" expands -sizes)")
	protocols := fs.String("protocols", "protectionless,slp",
		"comma-separated protocol axis: "+strings.Join(protocol.Names(), ", ")+" (plus the \"slp\" alias)")
	sds := fs.String("sd", "3", "comma-separated search distances")
	attackers := fs.String("attackers", "1,0,1", "semicolon-separated attacker R,H,M tuples")
	strategies := fs.String("strategies", attacker.DefaultStrategy,
		"comma-separated attacker strategies: "+strings.Join(attacker.StrategyNames(), ", "))
	counts := fs.String("nattackers", "1", "comma-separated eavesdropper team sizes")
	shared := fs.String("shared-history", "false", "comma-separated shared-H-window settings: false, true")
	channels := fs.String("channels", "ideal", "comma-separated channel axis: ideal, bernoulli:<p> with p in [0,1], rssi, logdist:<n>:<sigma>[@sinr:<threshold>]")
	collisions := fs.String("collisions", "false", "comma-separated collision settings: false, true")
	faults := fs.String("faults", "none", "comma-separated fault-injection axis: "+fault.Grammar)
	energy := fs.String("energy", "none", "comma-separated energy axis: none, battery:<capacity>[:<tx>:<rx>:<idle>] (mJ)")
	repeats := fs.Int("repeats", 10, "simulation repetitions per cell")
	seed := fs.Uint64("seed", 1, "base random seed")
	workers := fs.Int("workers", 0, "total concurrent simulations (0 = GOMAXPROCS)")
	out := fs.String("out", "", "output file (empty = stdout)")
	format := fs.String("format", "", "jsonl or csv (default: from -out extension, else jsonl)")
	resume := fs.Bool("resume", false, "resume an interrupted campaign: scan -out for completed cells, truncate any torn final line, append only the missing rows")
	shard := fs.String("shard", "", "run one stride slice i/n of the cell matrix (e.g. 1/3); merge shard outputs with 'slpsim merge'")
	checkpoint := fs.Int("checkpoint", 16, "flush sinks to disk every N completed cells (0 = only at exit)")
	quiet := fs.Bool("quiet", false, "suppress progress reporting on stderr")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	// campaign.Spec reads a zero repeat count, and an empty axis, as "use
	// the default", which would run a different campaign from the one
	// asked for.
	if err := atLeast(fs, floor{"-repeats", *repeats, 1}, floor{"-workers", *workers, 0}, floor{"-checkpoint", *checkpoint, 0}); err != nil {
		return err
	}
	l := lists{fs: fs}
	spec := campaign.Spec{
		GridSizes:       l.ints("sizes", *sizes, 2),
		Protocols:       l.list("protocols", *protocols),
		SearchDistances: l.ints("sd", *sds, 1),
		Attackers:       l.attackers(*attackers),
		Strategies:      l.list("strategies", *strategies),
		AttackerCounts:  l.ints("nattackers", *counts, 1),
		SharedHistories: l.bools("shared-history", *shared),
		Channels:        l.list("channels", *channels),
		Collisions:      l.bools("collisions", *collisions),
		Faults:          l.list("faults", *faults),
		Energy:          l.list("energy", *energy),
		Repeats:         *repeats,
		BaseSeed:        *seed,
		Workers:         *workers,
		CheckpointEvery: *checkpoint,
	}
	spec.Topologies = l.topologies(*topologies, spec.GridSizes)
	if l.err != nil {
		return l.err
	}
	if *shard != "" {
		var err error
		if spec.Shard, err = parseShard(*shard); err != nil {
			return usageError{fmt.Errorf("campaign: -shard: %w", err)}
		}
	}
	formatName := *format
	if formatName == "" {
		formatName = "jsonl"
		if strings.HasSuffix(*out, ".csv") {
			formatName = "csv"
		}
	}
	if formatName != "jsonl" && formatName != "csv" {
		return usageError{fmt.Errorf("campaign: unknown -format %q (want jsonl or csv)", *format)}
	}
	if *resume && *out == "" {
		return usageError{errors.New("campaign: -resume requires -out")}
	}
	if !*quiet {
		spec.Progress = func(done, total int, row campaign.Row) {
			fmt.Fprintf(os.Stderr, "slpsim: cell %d/%d %s %s sd=%d %s x%d: capture %.1f%% (%d/%d runs)\n",
				done, total, row.Topology, row.Protocol, row.SearchDistance,
				row.Strategy, row.Attackers,
				row.CaptureRatio*100, row.Captures, row.Runs)
		}
	}

	// A spec Run would refuse must fail before -out is opened, which
	// would truncate or create it.
	if _, err := spec.Expand(); err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	var outFile *os.File
	csvAppend := false
	if *resume {
		f, completed, hasHeader, err := openResume(spec, *out, formatName)
		if err != nil {
			return fmt.Errorf("campaign: -resume: %w", err)
		}
		outFile, csvAppend, spec.Skip = f, hasHeader, completed
		if !*quiet {
			fmt.Fprintf(os.Stderr, "slpsim: resuming %s: %d cells already complete\n", *out, len(completed))
		}
	} else if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		outFile = f
	}
	if outFile != nil {
		w = outFile
	}
	var sink campaign.Sink = campaign.NewJSONL(w)
	switch {
	case formatName == "csv" && csvAppend:
		// The resumed file already carries the header; appending must not
		// duplicate it.
		sink = campaign.NewCSVAppend(w)
	case formatName == "csv":
		sink = campaign.NewCSV(w)
	}

	sum, err := campaign.Run(spec, sink)
	if cerr := sink.Close(); cerr != nil && err == nil {
		err = cerr
	}
	// A failed close can drop buffered rows; it must fail the run.
	if outFile != nil {
		if cerr := outFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if !*quiet {
		if sum.Skipped > 0 {
			fmt.Fprintf(os.Stderr, "slpsim: %d/%d cells done (%d skipped: already complete or out of shard), %d run failures\n",
				sum.Cells-sum.Skipped, sum.Cells, sum.Skipped, sum.Failures)
		} else {
			fmt.Fprintf(os.Stderr, "slpsim: %d cells done, %d run failures\n", sum.Cells, sum.Failures)
		}
	}
	return nil
}

// parseShard parses "i/n" into a campaign.Shard; range validation is the
// engine's job.
func parseShard(s string) (campaign.Shard, error) {
	idxStr, cntStr, ok := strings.Cut(s, "/")
	if !ok {
		return campaign.Shard{}, fmt.Errorf("bad shard %q (want i/n, e.g. 1/3)", s)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(idxStr))
	if err != nil {
		return campaign.Shard{}, fmt.Errorf("bad shard index in %q", s)
	}
	cnt, err := strconv.Atoi(strings.TrimSpace(cntStr))
	if err != nil {
		return campaign.Shard{}, fmt.Errorf("bad shard count in %q", s)
	}
	if cnt < 1 {
		// An explicit -shard flag always intends sharding; a zero count
		// would silently run the whole matrix.
		return campaign.Shard{}, fmt.Errorf("shard count must be at least 1, got %q", s)
	}
	return campaign.Shard{Index: idx, Count: cnt}, nil
}

// openResume opens path for appending the missing cells of an interrupted
// campaign: it scans the format-appropriate completed-cell set — refusing
// rows that do not belong to spec's matrix and seed layout, so resuming
// with mismatched flags fails instead of mixing two campaigns — truncates
// any torn final line so appended rows start at a clean boundary, and
// leaves the write offset at the end. hasHeader reports whether a CSV
// header is already durable in the file.
func openResume(spec campaign.Spec, path, format string) (f *os.File, completed map[int]bool, hasHeader bool, err error) {
	f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, false, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	var valid int64
	completed, valid, err = spec.ScanResumable(f, format)
	if err != nil {
		return nil, nil, false, err
	}
	if err = f.Truncate(valid); err != nil {
		return nil, nil, false, err
	}
	if _, err = f.Seek(valid, io.SeekStart); err != nil {
		return nil, nil, false, err
	}
	return f, completed, format == "csv" && valid > 0, nil
}

// runMerge reassembles the per-shard JSONL outputs of a sharded campaign
// (campaign -shard i/n), named by its positional arguments, into one
// stream in canonical cell order. It verifies that the shards partition
// one campaign: no duplicate cells, no gaps, no coordinate conflicts
// (every row must agree on the repeat count and the campaign seed its
// base_seed implies) and no torn final lines. The merged file is
// byte-identical to what one campaign over the full matrix writes.
//
// -cells asserts the expected total cell count, catching the one failure
// the gap check cannot: a shard file that ends cleanly but was cut short
// at a row boundary after the highest cell index seen anywhere.
func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	out := fs.String("out", "", "merged output file (empty = stdout)")
	cells := fs.Int("cells", 0, "expected total cell count; non-zero makes a shortfall an error")
	quiet := fs.Bool("quiet", false, "suppress the summary line on stderr")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := atLeast(fs, floor{"-cells", *cells, 0}); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return usageError{errors.New("merge: no shard files given")}
	}

	// Refuse to write over an input: os.Create truncates before a single
	// row is read, which would destroy that shard's data.
	if *out != "" {
		outInfo, outErr := os.Stat(*out)
		for _, p := range paths {
			same := samePath(*out, p)
			if !same && outErr == nil {
				if info, err := os.Stat(p); err == nil {
					same = os.SameFile(outInfo, info)
				}
			}
			if same {
				return usageError{fmt.Errorf("merge: -out %s is also an input shard; merging would truncate it", *out)}
			}
		}
	}

	srcs := make([]io.Reader, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		srcs[i] = f
	}

	var w io.Writer = os.Stdout
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		outFile = f
		w = f
	}

	n, err := campaign.MergeJSONL(w, srcs...)
	if err == nil && *cells != 0 && n != *cells {
		err = fmt.Errorf("merged %d cells, expected %d — a shard output is incomplete", n, *cells)
	}
	if outFile != nil {
		if cerr := outFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "slpsim: %d cells from %d shards\n", n, len(paths))
	}
	return nil
}

// samePath reports whether a and b name the same file lexically (the
// os.SameFile check beside it catches links and relative spellings of
// existing files; this one catches an output that does not exist yet).
func samePath(a, b string) bool {
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	if errA != nil || errB != nil {
		return filepath.Clean(a) == filepath.Clean(b)
	}
	return aa == bb
}

// lists parses a command's list-valued flags. Each method refuses, with a
// usageError naming the flag, an empty list (which campaign.Spec would
// read as "use the default axis") and an entry it cannot parse or that is
// below its floor. The first error sticks in err, and later calls return
// nil.
type lists struct {
	fs  *flag.FlagSet
	err error
}

func (l *lists) fail(name string, err error) {
	l.err = usageError{fmt.Errorf("%s: -%s: %w", l.fs.Name(), name, err)}
}

// split splits the value s of flag -name at each sep, trimming blanks and
// dropping empty entries.
func (l *lists) split(name, s, sep string) []string {
	if l.err != nil {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, sep) {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		l.fail(name, errors.New("empty list"))
	}
	return out
}

// list parses a comma-separated list of names or specs.
func (l *lists) list(name, s string) []string { return l.split(name, s, ",") }

// ints parses a comma-separated list of integers, each at least min.
func (l *lists) ints(name, s string, min int) []int {
	var out []int
	for _, p := range l.list(name, s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			l.fail(name, fmt.Errorf("bad integer %q", p))
			return nil
		}
		if l.err = atLeast(l.fs, floor{"-" + name, v, min}); l.err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// bools parses a comma-separated list of booleans.
func (l *lists) bools(name, s string) []bool {
	var out []bool
	for _, p := range l.list(name, s) {
		b, err := strconv.ParseBool(p)
		if err != nil {
			l.fail(name, fmt.Errorf("bad value %q", p))
			return nil
		}
		out = append(out, b)
	}
	return out
}

// attackers parses -attackers: R,H,M tuples separated by semicolons.
func (l *lists) attackers(s string) []attacker.Params {
	var out []attacker.Params
	for _, tuple := range l.split("attackers", s, ";") {
		p, err := attacker.ParseParams(tuple)
		if err != nil {
			l.fail("attackers", err)
			return nil
		}
		if l.err = atLeast(l.fs, floor{"-attackers R", p.R, 1}, floor{"-attackers M", p.M, 1}); l.err != nil {
			return nil
		}
		out = append(out, p)
	}
	return out
}

// topologies parses the explicit topology axis; "" leaves it to the spec,
// which derives it from gridSizes. Plain "grid" expands to one grid per
// size; other entries are kind:<n> with an optional #<seed> placement
// seed for rgg.
func (l *lists) topologies(s string, gridSizes []int) []campaign.TopologySpec {
	if s == "" {
		return nil
	}
	var out []campaign.TopologySpec
	for _, p := range l.list("topologies", s) {
		if p == "grid" {
			for _, size := range gridSizes {
				out = append(out, campaign.TopologySpec{Kind: campaign.KindGrid, Size: size})
			}
			continue
		}
		kind, rest, ok := strings.Cut(p, ":")
		if !ok {
			l.fail("topologies", fmt.Errorf("bad topology %q (want kind:<n>)", p))
			return nil
		}
		sizeStr, seedStr, hasSeed := strings.Cut(rest, "#")
		size, err := strconv.Atoi(sizeStr)
		if err != nil {
			l.fail("topologies", fmt.Errorf("bad topology size in %q", p))
			return nil
		}
		ts := campaign.TopologySpec{Kind: campaign.TopologyKind(kind), Size: size}
		if hasSeed {
			if ts.Seed, err = strconv.ParseUint(seedStr, 10, 64); err != nil {
				l.fail("topologies", fmt.Errorf("bad topology seed in %q", p))
				return nil
			}
		}
		out = append(out, ts)
	}
	return out
}
