// Command slpsweep runs a full experimental campaign — the Cartesian
// product of topology, protocol, search-distance, attacker, loss-model,
// collision and fault-injection axes — through one shared worker pool, streaming one
// result row per cell to a JSONL or CSV sink. The paper's whole
// evaluation is one invocation:
//
//	slpsweep -sizes 11,15,21 -protocols protectionless,slp -sd 3 \
//	         -repeats 100 -out fig5a.jsonl
//
// Output is deterministic: the same flags and seed produce byte-identical
// rows, regardless of -workers. Progress goes to stderr; suppress it with
// -quiet.
//
// Long campaigns survive interruption and split across machines:
//
//	-resume    scans -out for already-completed cells (dropping any torn
//	           final line a kill left behind), then appends only the
//	           missing rows — the finished file is byte-identical to an
//	           uninterrupted run. A file whose rows belong to other flags,
//	           or repeat or reorder cells, is refused with exit 1;
//	-shard i/n runs the i-th of n deterministic stride slices of the cell
//	           matrix; merge the per-shard outputs with slpmerge.
//
// Usage:
//
//	slpsweep [-sizes 7,11] [-topologies grid|line:<n>|ring:<n>|rgg:<n>#<seed>,...]
//	         [-protocols protectionless,slp-das,phantom,fake-source,tier] [-sd 1,3]
//	         [-attackers R,H,M[;R,H,M...]] [-strategies first-heard,cautious,...]
//	         [-nattackers 1,2,3] [-shared-history false,true]
//	         [-loss ideal,bernoulli:<p>,rssi]
//	         [-channels ideal,logdist:<n>:<sigma>[@sinr:<t>],...]
//	         [-collisions false,true]
//	         [-faults SPEC,...] (fault.Parse grammar; -help lists it)
//	         [-energy none,battery:<capacity>[:<tx>:<rx>:<idle>]]
//	         [-repeats N] [-seed S] [-workers W]
//	         [-out results.jsonl] [-format jsonl|csv]
//	         [-resume] [-shard i/n] [-checkpoint N] [-quiet]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"slpdas"
	"slpdas/internal/attacker"
	"slpdas/internal/campaign"
	"slpdas/internal/fault"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("slpsweep", flag.ContinueOnError)
	sizesArg := fs.String("sizes", "11", "comma-separated grid sides for the topology axis")
	topoArg := fs.String("topologies", "", "explicit topology axis overriding -sizes: grid, line:<n>, ring:<n>, rgg:<n>#<seed> (comma-separated; plain \"grid\" expands -sizes)")
	protoArg := fs.String("protocols", "protectionless,slp",
		"comma-separated protocol axis: "+strings.Join(campaign.ProtocolNames(), ", ")+" (plus the \"slp\" alias)")
	sdArg := fs.String("sd", "3", "comma-separated search distances")
	atkArg := fs.String("attackers", "1,0,1", "semicolon-separated attacker R,H,M tuples")
	stratArg := fs.String("strategies", attacker.DefaultStrategy,
		"comma-separated attacker strategies: "+strings.Join(attacker.StrategyNames(), ", "))
	countArg := fs.String("nattackers", "1", "comma-separated eavesdropper team sizes")
	sharedArg := fs.String("shared-history", "false", "comma-separated shared-H-window settings: false, true")
	lossArg := fs.String("loss", "ideal", "comma-separated channel models: ideal, bernoulli:<p> with p in [0,1], rssi")
	channelsArg := fs.String("channels", "", "comma-separated channel axis superseding -loss: ideal, bernoulli:<p>, rssi, logdist:<n>:<sigma>[@sinr:<threshold>]")
	collArg := fs.String("collisions", "false", "comma-separated collision settings: false, true")
	faultsArg := fs.String("faults", "none", "comma-separated fault-injection axis: "+fault.Grammar)
	energyArg := fs.String("energy", "none", "comma-separated energy axis: none, battery:<capacity>[:<tx>:<rx>:<idle>] (mJ)")
	repeats := fs.Int("repeats", 10, "simulation repetitions per cell")
	seed := fs.Uint64("seed", 1, "base random seed")
	workers := fs.Int("workers", 0, "total concurrent simulations (0 = GOMAXPROCS)")
	out := fs.String("out", "", "output file (empty = stdout)")
	format := fs.String("format", "", "jsonl or csv (default: from -out extension, else jsonl)")
	resume := fs.Bool("resume", false, "resume an interrupted campaign: scan -out for completed cells, truncate any torn final line, append only the missing rows")
	shardArg := fs.String("shard", "", "run one stride slice i/n of the cell matrix (e.g. 1/3); merge shard outputs with slpmerge")
	checkpointEvery := fs.Int("checkpoint", 16, "flush sinks to disk every N completed cells (0 = only at exit)")
	quiet := fs.Bool("quiet", false, "suppress progress reporting on stderr")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		// flag stops at the first positional argument; refuse it rather
		// than silently drop it and every flag after it.
		fmt.Fprintf(os.Stderr, "slpsweep: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	spec, err := buildSpec(*sizesArg, *topoArg, *protoArg, *sdArg, *atkArg, *stratArg, *countArg, *sharedArg, *lossArg, *channelsArg, *collArg, *faultsArg, *energyArg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "slpsweep: %v\n", err)
		return 2
	}
	spec.Repeats = *repeats
	spec.BaseSeed = *seed
	spec.Workers = *workers
	spec.CheckpointEvery = *checkpointEvery
	if *shardArg != "" {
		sh, err := parseShard(*shardArg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "slpsweep: -shard: %v\n", err)
			return 2
		}
		spec.Shard = sh
	}
	if !*quiet {
		spec.Progress = func(done, total int, row campaign.Row) {
			fmt.Fprintf(os.Stderr, "slpsweep: cell %d/%d %s %s sd=%d %s x%d: capture %.1f%% (%d/%d runs)\n",
				done, total, row.Topology, row.Protocol, row.SearchDistance,
				row.Strategy, row.Attackers,
				row.CaptureRatio*100, row.Captures, row.Runs)
		}
	}

	formatName := resolveFormat(*format, *out)
	if formatName != "jsonl" && formatName != "csv" {
		fmt.Fprintf(os.Stderr, "slpsweep: unknown -format %q (want jsonl or csv)\n", *format)
		return 2
	}
	var w io.Writer = os.Stdout
	var outFile *os.File
	csvAppend := false
	if *resume {
		if *out == "" {
			fmt.Fprintln(os.Stderr, "slpsweep: -resume requires -out")
			return 2
		}
		f, completed, hasHeader, err := openResume(spec, *out, formatName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "slpsweep: -resume: %v\n", err)
			return 1
		}
		outFile, w = f, f
		csvAppend = hasHeader
		spec.Skip = completed
		if !*quiet {
			fmt.Fprintf(os.Stderr, "slpsweep: resuming %s: %d cells already complete\n", *out, len(completed))
		}
	} else if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "slpsweep: %v\n", err)
			return 1
		}
		outFile = f
		w = f
	}
	var sink campaign.Sink
	switch {
	case formatName == "csv" && csvAppend:
		// The resumed file already carries the header; appending must not
		// duplicate it.
		sink = campaign.NewCSVAppend(w)
	case formatName == "csv":
		sink = campaign.NewCSV(w)
	default:
		sink = campaign.NewJSONL(w)
	}

	sum, err := slpdas.RunCampaign(spec, sink)
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
		fmt.Fprintf(os.Stderr, "slpsweep: %v\n", err)
		return 1
	}
	if !*quiet {
		if sum.Skipped > 0 {
			fmt.Fprintf(os.Stderr, "slpsweep: %d/%d cells done (%d skipped: already complete or out of shard), %d run failures\n",
				sum.Cells-sum.Skipped, sum.Cells, sum.Skipped, sum.Failures)
		} else {
			fmt.Fprintf(os.Stderr, "slpsweep: %d cells done, %d run failures\n", sum.Cells, sum.Failures)
		}
	}
	return 0
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

func resolveFormat(format, out string) string {
	if format != "" {
		return format
	}
	if strings.HasSuffix(out, ".csv") {
		return "csv"
	}
	return "jsonl"
}

func buildSpec(sizes, topologies, protocols, sds, attackers, strategies, counts, shared, losses, channels, collisions, faults, energy string) (campaign.Spec, error) {
	var spec campaign.Spec
	var err error
	if spec.GridSizes, err = parseInts(sizes); err != nil {
		return spec, fmt.Errorf("-sizes: %w", err)
	}
	if spec.Topologies, err = parseTopologies(topologies, spec.GridSizes); err != nil {
		return spec, fmt.Errorf("-topologies: %w", err)
	}
	spec.Protocols = splitList(protocols)
	if spec.SearchDistances, err = parseInts(sds); err != nil {
		return spec, fmt.Errorf("-sd: %w", err)
	}
	if spec.Attackers, err = parseAttackers(attackers); err != nil {
		return spec, fmt.Errorf("-attackers: %w", err)
	}
	spec.Strategies = splitList(strategies)
	if spec.AttackerCounts, err = parseInts(counts); err != nil {
		return spec, fmt.Errorf("-nattackers: %w", err)
	}
	if spec.SharedHistories, err = parseBools(shared); err != nil {
		return spec, fmt.Errorf("-shared-history: %w", err)
	}
	// -channels supersedes -loss; both spell the same channel axis.
	if spec.Channels = splitList(channels); len(spec.Channels) == 0 {
		spec.Channels = splitList(losses)
	}
	if spec.Collisions, err = parseBools(collisions); err != nil {
		return spec, fmt.Errorf("-collisions: %w", err)
	}
	spec.Faults = splitList(faults)
	spec.Energy = splitList(energy)
	return spec, nil
}

func parseBools(s string) ([]bool, error) {
	var out []bool
	for _, p := range splitList(s) {
		b, err := strconv.ParseBool(p)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, b)
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseAttackers parses "R,H,M" tuples separated by semicolons.
func parseAttackers(s string) ([]attacker.Params, error) {
	var out []attacker.Params
	for _, tuple := range strings.Split(s, ";") {
		if tuple = strings.TrimSpace(tuple); tuple == "" {
			continue
		}
		fields, err := parseInts(tuple)
		if err != nil || len(fields) != 3 {
			return nil, fmt.Errorf("bad attacker tuple %q (want R,H,M)", tuple)
		}
		out = append(out, attacker.Params{R: fields[0], H: fields[1], M: fields[2]})
	}
	return out, nil
}

// parseTopologies parses the explicit topology axis. Plain "grid" expands
// to one grid per -sizes entry; other entries are kind:<n> with an
// optional #<seed> placement seed for rgg.
func parseTopologies(s string, gridSizes []int) ([]campaign.TopologySpec, error) {
	if s == "" {
		return nil, nil // let the spec derive the axis from GridSizes
	}
	var out []campaign.TopologySpec
	for _, p := range splitList(s) {
		if p == "grid" {
			for _, size := range gridSizes {
				out = append(out, campaign.TopologySpec{Kind: campaign.KindGrid, Size: size})
			}
			continue
		}
		kind, rest, ok := strings.Cut(p, ":")
		if !ok {
			return nil, fmt.Errorf("bad topology %q (want kind:<n>)", p)
		}
		sizeStr, seedStr, hasSeed := strings.Cut(rest, "#")
		size, err := strconv.Atoi(sizeStr)
		if err != nil {
			return nil, fmt.Errorf("bad topology size in %q", p)
		}
		ts := campaign.TopologySpec{Kind: campaign.TopologyKind(kind), Size: size}
		if hasSeed {
			if ts.Seed, err = strconv.ParseUint(seedStr, 10, 64); err != nil {
				return nil, fmt.Errorf("bad topology seed in %q", p)
			}
		}
		out = append(out, ts)
	}
	return out, nil
}
