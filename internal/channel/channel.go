// Package channel declares the physical-layer families as one table in
// name order — the channel-side mirror of internal/protocol and
// internal/attacker. A Model decides whether a frame reaches a receiver,
// and (for power-based models) at what received power, which is what SINR
// capture in the radio medium consumes. Families are named by keyword and
// parse from the shared textual grammar used by the campaign engine and
// the CLIs:
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
// Every family is an immutable value of one of two kinds, told apart by
// type. A frame family (ideal, bernoulli, rssi) is a FrameModel: it
// decides each candidate reception from the link's length and the
// medium's shared "radio" stream, drawing from it in exactly the sequence
// the original loss models drew, so default campaigns stay byte-identical.
// A link family (logdist) is a LinkModel: it turns a link's length and
// fade into a verdict that holds for the whole run. It never sees the
// shared stream; the medium draws each link's fade from a stream keyed by
// (run seed, link) and asks the model once per directed edge per run. No
// model holds run state, so one value serves any number of runs at once.
package channel

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
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

// Model is one physical-layer channel: a FrameModel or a LinkModel, never
// both (Validate checks). Models are immutable values.
type Model interface {
	// Spec returns the canonical grammar string; Parse(Spec()) is the
	// identity on canonical specs.
	Spec() string
}

// FrameModel is a channel that decides each candidate reception on its
// own.
type FrameModel interface {
	Model
	// Lost reports whether a frame crossing a link dist metres long is
	// dropped before reception. Any randomness comes from rng, the
	// medium's shared "radio" stream.
	Lost(dist float64, rng *rand.Rand) bool
}

// LinkModel is a channel whose verdict on a link holds for the whole run.
type LinkModel interface {
	Model
	// RxPowerMW returns the linear received power of a frame crossing a
	// link dist metres long whose fade is fade, a standard normal drawn
	// once per (run seed, link), and false when the frame is lost.
	RxPowerMW(dist, fade float64) (float64, bool)
	// Capture returns the SINR capture parameters and whether capture is
	// enabled; ok=false leaves the medium on its binary collision model.
	Capture() (CaptureParams, bool)
}

// Family describes one channel family: the grammar keyword, a one-line
// summary for listings, and the argument parser. Parse receives the text
// after "name:" with hasArgs distinguishing "name" from "name:"; it must
// consume the arguments completely — trailing garbage is a parse error,
// never silently ignored. Parameter ranges are Validate's to check.
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
			p, err := strconv.ParseFloat(args, 64)
			if err != nil {
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
			exp, err := strconv.ParseFloat(expStr, 64)
			if err != nil {
				return nil, fmt.Errorf("channel: bad logdist path-loss exponent %q (want a finite n > 0)", expStr)
			}
			sigma, err := strconv.ParseFloat(sigmaStr, 64)
			if err != nil {
				return nil, fmt.Errorf("channel: bad logdist shadowing sigma %q (want a finite sigma >= 0)", sigmaStr)
			}
			return LogDistance{Exp: exp, Sigma: sigma}, nil
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
// an error, every model it returns passes Validate, and Parse∘Spec is the
// identity on every canonical spec.
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
	if hasCap {
		ld, ok := m.(LogDistance)
		if !ok {
			return nil, fmt.Errorf("channel: %q: SINR capture needs a power-based channel (logdist)", s)
		}
		thrStr, ok := strings.CutPrefix(capSpec, "sinr:")
		if !ok {
			return nil, fmt.Errorf("channel: bad capture suffix %q in %q (want @sinr:<threshold dB>)", capSpec, s)
		}
		if ld.sinrDB, err = strconv.ParseFloat(thrStr, 64); err != nil {
			return nil, fmt.Errorf("channel: bad SINR threshold %q in %q (want a finite dB value)", thrStr, s)
		}
		ld.sinrOn = true
		m = ld
	}
	if err := Validate(m); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate reports a model that is not exactly one of a FrameModel and a
// LinkModel, or whose parameters fall outside its family's range: a
// bernoulli p outside [0, 1], a logdist exponent that is not a finite
// n > 0 or a sigma that is not a finite σ >= 0, or a SINR threshold that
// is not finite. NaN and ±Inf fail every check.
func Validate(m Model) error {
	_, frame := m.(FrameModel)
	_, link := m.(LinkModel)
	if frame == link {
		return fmt.Errorf("channel: %T must be exactly one of a frame and a link model", m)
	}
	switch m := m.(type) {
	case Bernoulli:
		if !(m.P >= 0 && m.P <= 1) {
			return fmt.Errorf("channel: bad bernoulli probability %v (want a finite p in [0, 1])", m.P)
		}
	case LogDistance:
		if !(m.Exp > 0) || math.IsInf(m.Exp, 0) {
			return fmt.Errorf("channel: bad logdist path-loss exponent %v (want a finite n > 0)", m.Exp)
		}
		if !(m.Sigma >= 0) || math.IsInf(m.Sigma, 0) {
			return fmt.Errorf("channel: bad logdist shadowing sigma %v (want a finite sigma >= 0)", m.Sigma)
		}
		if math.IsNaN(m.sinrDB) || math.IsInf(m.sinrDB, 0) {
			return fmt.Errorf("channel: bad SINR threshold %v (want a finite dB value)", m.sinrDB)
		}
	}
	return nil
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

// Lost implements FrameModel; it always returns false and draws nothing.
func (Ideal) Lost(float64, *rand.Rand) bool { return false }

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

// Lost implements FrameModel.
func (b Bernoulli) Lost(_ float64, rng *rand.Rand) bool {
	return rng.Float64() < b.P
}

// --- rssi ---

// RSSI is the calibrated log-normal shadowing substitute for the TOSSIM
// casino-lab noise trace: received power is
//
//	RSSI = txPower − (refLoss + 10·2.4·log10(d/refDist)) + N(0, 4)
//
// drawn fresh per frame, and the frame is lost when RSSI falls below the
// −70 dBm sensitivity. One NormFloat64 per candidate reception from the
// shared stream — the exact sequence the original rssi model drew. It
// keeps binary collisions.
type RSSI struct{}

// rssiPathLossExp and rssiSigma are the calibrated casino-lab substitute
// parameters; links at grid spacing (4.5 m) succeed ≈99% of the time.
const (
	rssiPathLossExp = 2.4
	rssiSigma       = 4
)

// Spec implements Model.
func (RSSI) Spec() string { return "rssi" }

// Lost implements FrameModel.
func (RSSI) Lost(dist float64, rng *rand.Rand) bool {
	if dist < refDistM {
		dist = refDistM
	}
	pathLoss := refLossDB + 10*rssiPathLossExp*math.Log10(dist/refDistM)
	rssi := txPowerDBm - pathLoss + rng.NormFloat64()*rssiSigma
	return rssi < sensitivityDBm
}

// --- logdist ---

// LogDistance is log-distance path loss with per-link log-normal
// shadowing: a link's received power is
//
//	P(link) = txPower − (refLoss + 10·Exp·log10(d/refDist)) + fade·Sigma
//
// where fade ~ N(0, 1) is drawn once per (run seed, link) — the shadowing
// a static deployment actually experiences: some links are durably good,
// some durably marginal, rather than re-rolled per frame. A frame is lost
// when its received power falls below the −70 dBm sensitivity, so the
// verdict is fixed per link for the run.
//
// With sinrOn (the @sinr:<t> grammar suffix) the model also switches the
// radio medium from binary collisions to capture: the strongest frame of
// a reception window survives if its power clears t dB over noise plus
// the window's other frames. Only Parse sets the suffix.
type LogDistance struct {
	// Exp is the path-loss exponent n.
	Exp float64
	// Sigma is the shadowing standard deviation in dB.
	Sigma float64

	sinrOn bool
	sinrDB float64
}

// Spec implements Model.
func (m LogDistance) Spec() string {
	s := "logdist:" + formatFloat(m.Exp) + ":" + formatFloat(m.Sigma)
	if m.sinrOn {
		s += "@sinr:" + formatFloat(m.sinrDB)
	}
	return s
}

// RxPowerMW implements LinkModel. The shadowing term is rounded on its
// own before the sum (the conversion forbids a fused multiply-add), and
// with Sigma 0 it is ±0, which leaves the sum unchanged.
func (m LogDistance) RxPowerMW(dist, fade float64) (float64, bool) {
	if dist < refDistM {
		dist = refDistM
	}
	pathLoss := refLossDB + 10*m.Exp*math.Log10(dist/refDistM)
	dbm := txPowerDBm - pathLoss + float64(fade*m.Sigma)
	if dbm < sensitivityDBm {
		return 0, false
	}
	return dbmToMilliwatt(dbm), true
}

// Capture implements LinkModel.
func (m LogDistance) Capture() (CaptureParams, bool) {
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
	_ FrameModel = Ideal{}
	_ FrameModel = Bernoulli{}
	_ FrameModel = RSSI{}
	_ LinkModel  = LogDistance{}
)
