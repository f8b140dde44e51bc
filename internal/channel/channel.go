// Package channel declares the physical-layer families as one table in
// name order — the channel-side mirror of internal/protocol and
// internal/attacker. A Model decides, per link and per transmission,
// whether a frame reaches a receiver, and (for power-based models) at what
// received power, which is what SINR capture in the radio medium
// consumes. Families are named by keyword and parse from the shared
// textual grammar used by the campaign engine and the CLIs:
//
//	ideal                                  perfectly reliable channel
//	bernoulli:<p>                          i.i.d. loss with probability p
//	rssi                                   calibrated log-normal shadowing (per frame)
//	logdist:<n>:<sigma>[@sinr:<t>]         log-distance path loss, exponent n, with
//	                                       per-link log-normal shadowing (stddev sigma
//	                                       dB); @sinr:<t> switches the medium from
//	                                       binary collisions to SINR capture with
//	                                       threshold t dB
//
// Determinism contract: ideal, bernoulli and rssi draw from the medium's
// shared "radio" stream in exactly the sequence the original loss models
// drew, so default campaigns stay byte-identical. logdist draws
// nothing from shared streams: its per-link shadowing is a pure function
// of (run seed, link), minted through a dedicated labelled xrand stream
// and cached, so the value is independent of the order links are first
// used in and of how many other links a run touches.
package channel

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"

	"slpdas/internal/topo"
	"slpdas/internal/xrand"
)

// Log-distance channel constants, shared with the calibrated rssi model:
// 0 dBm transmit power, 40 dB reference loss at 1 m, −70 dBm receiver
// sensitivity. The SINR noise floor is the thermal floor a 802.15.4
// receiver integrates over its 2 MHz bandwidth, with a few dB of noise
// figure.
const (
	txPowerDBm     = 0
	refLossDB      = 40
	refDistM       = 1
	sensitivityDBm = -70
	noiseFloorDBm  = -90
)

// CaptureParams configures SINR capture in the radio medium, in linear
// milliwatt units precomputed from the grammar's dB values so the per
// delivery check is branch-and-multiply only.
type CaptureParams struct {
	// ThresholdMW is the linear SINR ratio a frame must clear against
	// noise plus same-window interference to survive.
	ThresholdMW float64
	// NoiseMW is the thermal noise floor.
	NoiseMW float64
}

// Model is one physical-layer channel. Implementations must be
// deterministic: any per-frame randomness comes from the supplied stream
// (the medium's shared "radio" stream), and any per-link state must be a
// pure function of the Reset seed so arena reuse and worker scheduling
// cannot change a draw. A capture model (Capture returns ok) draws nothing
// in Lost, and both its Lost and RxPowerMW are pure functions of (Reset
// seed, from, to, dist), so the medium asks them once per directed edge
// per run and keeps the verdict.
type Model interface {
	// Spec returns the canonical grammar string; Parse(Spec()) is the
	// identity on canonical specs.
	Spec() string
	// Reset rewinds per-run channel state (shadowing caches) for a new run
	// seed. Stateless models no-op.
	Reset(seed uint64)
	// Lost reports whether the frame from→to at distance dist metres is
	// dropped before reception (below sensitivity, or unlucky).
	Lost(from, to topo.NodeID, dist float64, rng *rand.Rand) bool
	// RxPowerMW returns the linear received power of a surviving frame,
	// consumed by the medium's SINR accumulator. Models without a power
	// axis return a nominal constant.
	RxPowerMW(from, to topo.NodeID, dist float64) float64
	// Capture returns the SINR capture parameters and whether capture is
	// enabled; ok=false leaves the medium on its binary collision model.
	Capture() (CaptureParams, bool)
}

// Family describes one channel family: the grammar keyword, a one-line
// summary for listings, and the argument parser. Parse receives the text
// after "name:" with hasArgs distinguishing "name" from "name:"; it must
// consume the arguments completely — trailing garbage is a parse error,
// never silently ignored.
type Family struct {
	Name    string
	Summary string
	Parse   func(args string, hasArgs bool) (Model, error)
}

// families is every channel family, declared in name order: Names lists
// it as it stands.
var families = [...]Family{
	{
		Name:    "bernoulli",
		Summary: "i.i.d. frame loss with probability p: bernoulli:<p>",
		Parse: func(args string, hasArgs bool) (Model, error) {
			if !hasArgs {
				return nil, fmt.Errorf("channel: bernoulli needs a probability (bernoulli:<p>)")
			}
			p, err := parseFinite(args)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("channel: bad bernoulli probability %q (want a finite p in [0, 1])", args)
			}
			return Bernoulli{P: p}, nil
		},
	},
	{
		Name:    "ideal",
		Summary: "perfectly reliable channel (the paper's evaluation model)",
		Parse: func(args string, hasArgs bool) (Model, error) {
			if hasArgs {
				return nil, fmt.Errorf("channel: ideal takes no arguments, got %q", args)
			}
			return Ideal{}, nil
		},
	},
	{
		Name:    "logdist",
		Summary: "log-distance path loss with per-link shadowing: logdist:<n>:<sigma>[@sinr:<t>]",
		Parse: func(args string, hasArgs bool) (Model, error) {
			if !hasArgs {
				return nil, fmt.Errorf("channel: logdist needs arguments (logdist:<n>:<sigma>)")
			}
			expStr, sigmaStr, ok := strings.Cut(args, ":")
			if !ok {
				return nil, fmt.Errorf("channel: logdist wants two arguments (logdist:<n>:<sigma>), got %q", args)
			}
			exp, err := parseFinite(expStr)
			if err != nil || exp <= 0 {
				return nil, fmt.Errorf("channel: bad logdist path-loss exponent %q (want a finite n > 0)", expStr)
			}
			sigma, err := parseFinite(sigmaStr)
			if err != nil || sigma < 0 {
				return nil, fmt.Errorf("channel: bad logdist shadowing sigma %q (want a finite sigma >= 0)", sigmaStr)
			}
			return NewLogDistance(exp, sigma), nil
		},
	},
	{
		Name:    "rssi",
		Summary: "calibrated log-normal shadowing, drawn per frame (casino-lab substitute)",
		Parse: func(args string, hasArgs bool) (Model, error) {
			if hasArgs {
				return nil, fmt.Errorf("channel: rssi takes no arguments, got %q", args)
			}
			return RSSI{}, nil
		},
	},
}

// Names lists the family names, sorted.
func Names() []string {
	out := make([]string, len(families))
	for i := range families {
		out[i] = families[i].Name
	}
	return out
}

// Parse resolves a grammar string to its Model. The empty string selects
// ideal. The optional "@sinr:<t>" suffix enables SINR capture and is only
// meaningful on power-based families (logdist). Parse is strict: trailing
// garbage after a valid prefix ("bernoulli:0.5x", "rssi:", "idealx") is
// an error, and Parse∘Spec is the identity on every canonical spec.
func Parse(s string) (Model, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		t = "ideal"
	}
	base, capSpec, hasCap := strings.Cut(t, "@")
	name, args, hasArgs := strings.Cut(base, ":")
	i := slices.IndexFunc(families[:], func(f Family) bool { return f.Name == name })
	if i < 0 {
		return nil, fmt.Errorf("channel: unknown channel %q (have %v)", s, Names())
	}
	m, err := families[i].Parse(args, hasArgs)
	if err != nil {
		return nil, err
	}
	if !hasCap {
		return m, nil
	}
	ld, ok := m.(*LogDistance)
	if !ok {
		return nil, fmt.Errorf("channel: %q: SINR capture needs a power-based channel (logdist)", s)
	}
	thrStr, ok := strings.CutPrefix(capSpec, "sinr:")
	if !ok {
		return nil, fmt.Errorf("channel: bad capture suffix %q in %q (want @sinr:<threshold dB>)", capSpec, s)
	}
	thr, err := parseFinite(thrStr)
	if err != nil {
		return nil, fmt.Errorf("channel: bad SINR threshold %q in %q (want a finite dB value)", thrStr, s)
	}
	ld.sinrOn = true
	ld.sinrDB = thr
	return ld, nil
}

// parseFinite is strconv.ParseFloat rejecting NaN and ±Inf, which
// otherwise parse successfully and then slip past every range comparison.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %q", s)
	}
	return v, nil
}

// formatFloat renders a parameter the way Parse reads it back: shortest
// round-trip form.
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// --- ideal ---

// Ideal is the paper's evaluation channel (§VI-A): every in-range frame
// arrives. It draws nothing, so runs configured with it are byte-identical
// to the original ideal loss model.
type Ideal struct{}

// Spec implements Model.
func (Ideal) Spec() string { return "ideal" }

// Reset implements Model; Ideal carries no run state.
func (Ideal) Reset(uint64) {}

// Lost implements Model; it always returns false and draws nothing.
func (Ideal) Lost(_, _ topo.NodeID, _ float64, _ *rand.Rand) bool { return false }

// RxPowerMW implements Model with a nominal constant power.
func (Ideal) RxPowerMW(_, _ topo.NodeID, _ float64) float64 { return 1 }

// Capture implements Model; Ideal has no power axis.
func (Ideal) Capture() (CaptureParams, bool) { return CaptureParams{}, false }

// --- bernoulli ---

// Bernoulli drops every frame independently with probability P,
// irrespective of distance, drawing one Float64 from the shared stream
// per candidate reception — the exact sequence the original model
// drew.
type Bernoulli struct {
	P float64
}

// Spec implements Model.
func (b Bernoulli) Spec() string { return "bernoulli:" + formatFloat(b.P) }

// Reset implements Model; Bernoulli carries no run state.
func (Bernoulli) Reset(uint64) {}

// Lost implements Model.
func (b Bernoulli) Lost(_, _ topo.NodeID, _ float64, rng *rand.Rand) bool {
	return rng.Float64() < b.P
}

// RxPowerMW implements Model with a nominal constant power.
func (Bernoulli) RxPowerMW(_, _ topo.NodeID, _ float64) float64 { return 1 }

// Capture implements Model; Bernoulli has no power axis.
func (Bernoulli) Capture() (CaptureParams, bool) { return CaptureParams{}, false }

// --- rssi ---

// RSSI is the calibrated log-normal shadowing substitute for the TOSSIM
// casino-lab noise trace: received power is
//
//	RSSI = txPower − (refLoss + 10·2.4·log10(d/refDist)) + N(0, 4)
//
// drawn fresh per frame, and the frame is lost when RSSI falls below the
// −70 dBm sensitivity. One NormFloat64 per candidate reception from the
// shared stream — the exact sequence the original rssi model drew.
type RSSI struct{}

// rssiPathLossExp and rssiSigma are the calibrated casino-lab substitute
// parameters; links at grid spacing (4.5 m) succeed ≈99% of the time.
const (
	rssiPathLossExp = 2.4
	rssiSigma       = 4
)

// Spec implements Model.
func (RSSI) Spec() string { return "rssi" }

// Reset implements Model; RSSI redraws shadowing per frame and carries no
// run state.
func (RSSI) Reset(uint64) {}

// Lost implements Model.
func (RSSI) Lost(_, _ topo.NodeID, dist float64, rng *rand.Rand) bool {
	if dist < refDistM {
		dist = refDistM
	}
	pathLoss := refLossDB + 10*rssiPathLossExp*math.Log10(dist/refDistM)
	rssi := txPowerDBm - pathLoss + rng.NormFloat64()*rssiSigma
	return rssi < sensitivityDBm
}

// RxPowerMW implements Model with the mean (shadowing-free) received
// power; rssi predates the SINR path and keeps binary collisions.
func (RSSI) RxPowerMW(_, _ topo.NodeID, dist float64) float64 {
	if dist < refDistM {
		dist = refDistM
	}
	return dbmToMilliwatt(txPowerDBm - (refLossDB + 10*rssiPathLossExp*math.Log10(dist/refDistM)))
}

// Capture implements Model; rssi keeps the binary collision model.
func (RSSI) Capture() (CaptureParams, bool) { return CaptureParams{}, false }

// --- logdist ---

// shadowLabel derives the per-link shadowing stream from the run seed;
// the link key is mixed in alongside it.
const shadowLabel = 0x73686477 // "shdw"

// LogDistance is log-distance path loss with per-link log-normal
// shadowing: a link's received power is
//
//	P(from→to) = txPower − (refLoss + 10·Exp·log10(d/refDist)) + S(link)
//
// where S(link) ~ N(0, Sigma²) dB is drawn once per (run seed, link) —
// the shadowing a static deployment actually experiences: some links are
// durably good, some durably marginal, rather than re-rolled per frame.
// A frame is lost when its received power falls below the −70 dBm
// sensitivity; this is deterministic per link, so logdist draws nothing
// from the medium's shared stream and fault-free default campaigns stay
// byte-identical when it is not selected.
//
// With sinrOn (the @sinr:<t> grammar suffix) the model also switches the
// radio medium from binary collisions to capture: the strongest frame of
// a reception window survives if its power clears t dB over noise plus
// the window's other frames.
type LogDistance struct {
	// Exp is the path-loss exponent n.
	Exp float64 // lint:immutable: channel parameter, not run state
	// Sigma is the shadowing standard deviation in dB.
	Sigma float64 // lint:immutable: channel parameter, not run state

	sinrOn bool    // lint:immutable: channel parameter, not run state
	sinrDB float64 // lint:immutable: channel parameter, not run state

	seed uint64
	// pcg is the scratch generator behind the per-link shadowing draws:
	// reseeded to the (seed, link) stream before each draw, so the shadow
	// value is a pure function of (seed, link) no matter which link is
	// drawn first.
	pcg rand.PCG   // lint:immutable: reseeded from (seed, link) before every draw
	rng *rand.Rand // lint:immutable: wraps &pcg; reseeding the pcg rewinds it

	// shadow caches S(link) by packed link key for the current seed; the
	// map is cleared, not reallocated, on Reset, so a warm arena draws
	// each link's shadow with no steady-state allocation.
	shadow map[uint64]float64
}

// NewLogDistance builds a log-distance channel with path-loss exponent
// exp and shadowing stddev sigma dB (no capture; Parse enables it from
// the @sinr suffix).
func NewLogDistance(exp, sigma float64) *LogDistance {
	m := &LogDistance{Exp: exp, Sigma: sigma, shadow: make(map[uint64]float64)}
	m.rng = xrand.Wrap(&m.pcg)
	return m
}

// Spec implements Model.
func (m *LogDistance) Spec() string {
	s := "logdist:" + formatFloat(m.Exp) + ":" + formatFloat(m.Sigma)
	if m.sinrOn {
		s += "@sinr:" + formatFloat(m.sinrDB)
	}
	return s
}

// Reset implements Model: the shadowing cache is invalidated and future
// draws derive from the new run seed.
func (m *LogDistance) Reset(seed uint64) {
	m.seed = seed
	clear(m.shadow)
}

// linkKey packs an undirected link into a cache key, ordering the
// endpoints so shadowing is symmetric: S(a→b) = S(b→a).
func linkKey(a, b topo.NodeID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// shadowDB returns the link's shadowing in dB, drawing and caching it on
// first use. The draw reseeds the scratch generator to the labelled
// (seed, link) stream, so the value is order-independent.
//
//slp:hotpath
func (m *LogDistance) shadowDB(a, b topo.NodeID) float64 {
	if m.Sigma == 0 {
		return 0
	}
	k := linkKey(a, b)
	if v, ok := m.shadow[k]; ok {
		return v
	}
	m.pcg.Seed(xrand.Seeds(m.seed, k, shadowLabel))
	v := m.rng.NormFloat64() * m.Sigma
	m.shadow[k] = v
	return v
}

// rxPowerDBm is the link's received power in dBm.
//
//slp:hotpath
func (m *LogDistance) rxPowerDBm(from, to topo.NodeID, dist float64) float64 {
	if dist < refDistM {
		dist = refDistM
	}
	pathLoss := refLossDB + 10*m.Exp*math.Log10(dist/refDistM)
	return txPowerDBm - pathLoss + m.shadowDB(from, to)
}

// Lost implements Model: a frame is lost when the link's (deterministic,
// per-seed) received power is below sensitivity. Draws nothing from the
// shared stream.
//
//slp:hotpath
func (m *LogDistance) Lost(from, to topo.NodeID, dist float64, _ *rand.Rand) bool {
	return m.rxPowerDBm(from, to, dist) < sensitivityDBm
}

// RxPowerMW implements Model.
//
//slp:hotpath
func (m *LogDistance) RxPowerMW(from, to topo.NodeID, dist float64) float64 {
	return dbmToMilliwatt(m.rxPowerDBm(from, to, dist))
}

// Capture implements Model.
func (m *LogDistance) Capture() (CaptureParams, bool) {
	if !m.sinrOn {
		return CaptureParams{}, false
	}
	return CaptureParams{
		ThresholdMW: dbToLinear(m.sinrDB),
		NoiseMW:     dbmToMilliwatt(noiseFloorDBm),
	}, true
}

// dbmToMilliwatt converts absolute dBm to linear milliwatts.
func dbmToMilliwatt(dbm float64) float64 { return math.Pow(10, dbm/10) }

// dbToLinear converts a dB ratio to its linear ratio.
func dbToLinear(db float64) float64 { return math.Pow(10, db/10) }

// Interface compliance.
var (
	_ Model = Ideal{}
	_ Model = Bernoulli{}
	_ Model = RSSI{}
	_ Model = (*LogDistance)(nil)
)
