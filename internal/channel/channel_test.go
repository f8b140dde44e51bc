package channel

import (
	"math"
	"strings"
	"testing"

	"slpdas/internal/xrand"
)

// TestParseSpecIdentity pins Parse∘Spec as the identity on every
// canonical spec, the same contract fault.Spec holds: a campaign
// coordinate rendered into a row and parsed back selects the same
// channel.
func TestParseSpecIdentity(t *testing.T) {
	for _, spec := range []string{
		"ideal",
		"bernoulli:0",
		"bernoulli:0.25",
		"bernoulli:1",
		"rssi",
		"logdist:2.4:4",
		"logdist:2:0",
		"logdist:3.5:6.5",
		"logdist:2.4:4@sinr:3",
		"logdist:2.4:4@sinr:-1.5",
		"logdist:2.4:0@sinr:0",
	} {
		m, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		if got := m.Spec(); got != spec {
			t.Errorf("Parse(%q).Spec() = %q; Parse∘Spec must be the identity", spec, got)
		}
	}
}

// TestParseNonCanonical: spellings that are valid but not canonical
// normalise through Spec.
func TestParseNonCanonical(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "ideal"},
		{"  ideal  ", "ideal"},
		{"bernoulli:0.250", "bernoulli:0.25"},
		{"bernoulli:1.0", "bernoulli:1"},
		{"logdist:2.40:4.0", "logdist:2.4:4"},
		{"logdist:2.4:4@sinr:3.0", "logdist:2.4:4@sinr:3"},
	} {
		m, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if got := m.Spec(); got != tc.want {
			t.Errorf("Parse(%q).Spec() = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestParseRejectsGarbage is the grammar-surface table test: trailing
// garbage after a valid prefix, missing arguments, out-of-range and
// non-finite parameters are all errors, never silently normalised.
func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"idealx",
		"ideal:",
		"ideal:1",
		"rssi2",
		"rssi:",
		"rssi:4",
		"bernoulli",
		"bernoulli:",
		"bernoulli:0.5x",
		"bernoulli:0.5:1",
		"bernoulli:-0.1",
		"bernoulli:1.1",
		"bernoulli:NaN",
		"bernoulli:nan",
		"bernoulli:+Inf",
		"bernoulli:-Inf",
		"bernoulli:Inf",
		"bernoulli:1.0001",
		"bernoulli:x",
		"bernoulli:0.5:",
		"logdist",
		"logdist:",
		"logdist:2.4",
		"logdist:2.4:4:9",
		"logdist:2.4:4x",
		"logdist:0:4",
		"logdist:-2:4",
		"logdist:2.4:-1",
		"logdist:NaN:4",
		"logdist:2.4:4@",
		"logdist:2.4:4@sinr",
		"logdist:2.4:4@sinr:",
		"logdist:2.4:4@sinr:3x",
		"logdist:2.4:4@sinr:NaN",
		"logdist:2.4:4@snr:3",
		"ideal@sinr:3",
		"bernoulli:0.5@sinr:3",
		"rssi@sinr:3",
		"unknown",
		"bogus",
	} {
		if m, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted garbage as %q", bad, m.Spec())
		}
	}
}

// FuzzParse: every accepted spec is exactly one kind, frame or link, has
// finite, in-range parameters (bernoulli p ∈ [0, 1], logdist n > 0 and
// σ ≥ 0, a finite SINR threshold), and its canonical Spec parses back to
// an equal value with the same Spec.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"ideal", "rssi", "bernoulli:0.5", "bernoulli:NaN", "bernoulli:+Inf", "bernoulli:1", "bernoulli:1e-3",
		"logdist:2.4:4", "logdist:2.4:4@sinr:3", "logdist:0:4", "logdist:2:-1@sinr:Inf",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := Parse(s)
		if err != nil {
			return
		}
		_, frame := m.(FrameModel)
		_, link := m.(LinkModel)
		if frame == link {
			t.Errorf("Parse(%q) = %T: frame model %v, link model %v, want exactly one", s, m, frame, link)
		}
		switch m := m.(type) {
		case Bernoulli:
			if !(m.P >= 0 && m.P <= 1) { // NaN fails this form too
				t.Errorf("Parse(%q) produced p=%v outside [0,1]", s, m.P)
			}
		case LogDistance:
			if !(m.Exp > 0) || math.IsInf(m.Exp, 0) || !(m.Sigma >= 0) || math.IsInf(m.Sigma, 0) {
				t.Errorf("Parse(%q) produced n=%v σ=%v", s, m.Exp, m.Sigma)
			}
			if math.IsNaN(m.sinrDB) || math.IsInf(m.sinrDB, 0) {
				t.Errorf("Parse(%q) produced SINR threshold %v", s, m.sinrDB)
			}
		}
		back, err := Parse(m.Spec())
		if err != nil {
			t.Fatalf("Parse(%q).Spec() = %q does not parse back: %v", s, m.Spec(), err)
		}
		if back != m || back.Spec() != m.Spec() {
			t.Errorf("Parse(%q) = %#v (Spec %q) reparses as %#v (Spec %q)", s, m, m.Spec(), back, back.Spec())
		}
	})
}

// TestValidateRanges: Validate refuses each out-of-range or non-finite
// parameter of a model built without Parse, and a model of neither kind,
// and accepts the range's edges.
func TestValidateRanges(t *testing.T) {
	for _, m := range []Model{
		Bernoulli{P: -0.1}, Bernoulli{P: 2}, Bernoulli{P: math.NaN()}, Bernoulli{P: math.Inf(1)},
		LogDistance{Exp: 0, Sigma: 4}, LogDistance{Exp: math.Inf(1), Sigma: 4},
		LogDistance{Exp: 2.4, Sigma: -1}, LogDistance{Exp: 2.4, Sigma: math.NaN()},
		LogDistance{Exp: 2.4, Sigma: 4, sinrOn: true, sinrDB: math.Inf(-1)},
		specOnly{},
	} {
		if err := Validate(m); err == nil {
			t.Errorf("Validate(%#v) accepted it", m)
		}
	}
	for _, m := range []Model{Ideal{}, RSSI{}, Bernoulli{P: 0}, Bernoulli{P: 1}, LogDistance{Exp: 2.4, Sigma: 0}} {
		if err := Validate(m); err != nil {
			t.Errorf("Validate(%#v): %v", m, err)
		}
	}
}

// specOnly is a Model of neither kind.
type specOnly struct{}

func (specOnly) Spec() string { return "spec-only" }

// TestBernoulliExtremes: the admitted bounds really mean what they say —
// p=0 never loses a frame, p=1 loses every frame.
func TestBernoulliExtremes(t *testing.T) {
	r := xrand.NewNamed(1, "radio")
	for i := 0; i < 1000; i++ {
		if (Bernoulli{P: 0}).Lost(1, r) {
			t.Fatal("bernoulli:0 lost a frame")
		}
		if !(Bernoulli{P: 1}).Lost(1, r) {
			t.Fatal("bernoulli:1 delivered a frame")
		}
	}
}

// TestFamiliesSorted: the table lists every family in strictly increasing
// name order (so a duplicate fails), and an unknown name's error lists
// them.
func TestFamiliesSorted(t *testing.T) {
	names := Names()
	if len(names) != 4 {
		t.Fatalf("Names() = %v, want the 4 built-in families", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	if _, err := Parse("nonsense"); err == nil || !strings.Contains(err.Error(), "ideal") {
		t.Errorf("unknown-channel error should list known families, got: %v", err)
	}
}

// TestLogDistanceLostDrawsNothing: logdist is a link model, never a
// frame model, so it is never handed the medium's shared stream — the
// property that keeps default goldens byte-identical when logdist cells
// run beside them. ideal, bernoulli and rssi are frame models.
func TestLogDistanceLostDrawsNothing(t *testing.T) {
	for _, spec := range []string{"logdist:2.4:4", "logdist:2.4:4@sinr:3"} {
		m, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, frame := m.(FrameModel); frame {
			t.Errorf("%s is a frame model; it would draw from the shared stream", spec)
		}
	}
	for _, spec := range []string{"ideal", "bernoulli:0.5", "rssi"} {
		m, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, frame := m.(FrameModel); !frame {
			t.Errorf("%s is not a frame model", spec)
		}
	}
}

// TestLogDistanceSensitivity: with zero fade, loss is a pure threshold on
// distance — near links deliver, far links drop — and a fade shifts the
// received power by fade·Sigma dB.
func TestLogDistanceSensitivity(t *testing.T) {
	m := LogDistance{Exp: 2.4, Sigma: 0}
	// rx(d) = −40 − 24·log10(d); sensitivity −70 → cutoff d = 10^(30/24) ≈ 17.8 m.
	if _, ok := m.RxPowerMW(4.5, 0); !ok {
		t.Errorf("grid-spacing link (4.5 m) lost under logdist:2.4:0")
	}
	if _, ok := m.RxPowerMW(30, 0); ok {
		t.Errorf("30 m link delivered under logdist:2.4:0; sensitivity threshold broken")
	}
	// Power is monotone decreasing in distance.
	if p1, p2 := mustPower(t, m, 4.5, 0), mustPower(t, m, 9, 0); p1 <= p2 {
		t.Errorf("RxPowerMW not decreasing: %v at 4.5 m, %v at 9 m", p1, p2)
	}
	// With Sigma 0 the fade does not matter; with Sigma 4 a fade of −1
	// costs 4 dB.
	if p, q := mustPower(t, m, 4.5, 0), mustPower(t, m, 4.5, -3); p != q {
		t.Errorf("logdist:2.4:0 power moved with the fade: %v vs %v", p, q)
	}
	shadowed := LogDistance{Exp: 2.4, Sigma: 4}
	if p, q := mustPower(t, shadowed, 4.5, 0), mustPower(t, shadowed, 4.5, -1); math.Abs(10*math.Log10(p/q)-4) > 1e-9 {
		t.Errorf("fade −1 under σ=4 moved the power by %v dB, want 4", 10*math.Log10(p/q))
	}
}

// mustPower returns m's received power over a link it must not lose.
func mustPower(t *testing.T, m LogDistance, dist, fade float64) float64 {
	t.Helper()
	p, ok := m.RxPowerMW(dist, fade)
	if !ok {
		t.Fatalf("%s lost a %v m link at fade %v", m.Spec(), dist, fade)
	}
	return p
}

// TestCaptureParams: the @sinr suffix yields linear parameters, absent
// otherwise.
func TestCaptureParams(t *testing.T) {
	m, err := Parse("logdist:2.4:4")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(LinkModel).Capture(); ok {
		t.Error("logdist without @sinr reports capture enabled")
	}
	m, err = Parse("logdist:2.4:4@sinr:3")
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := m.(LinkModel).Capture()
	if !ok {
		t.Fatal("logdist@sinr reports capture disabled")
	}
	if want := math.Pow(10, 0.3); math.Abs(cp.ThresholdMW-want) > 1e-12 {
		t.Errorf("ThresholdMW = %v, want 10^0.3 = %v", cp.ThresholdMW, want)
	}
	if want := math.Pow(10, -9); math.Abs(cp.NoiseMW-want) > 1e-21 {
		t.Errorf("NoiseMW = %v, want 10^-9 = %v", cp.NoiseMW, want)
	}
}

// TestStatelessModels: ideal/bernoulli/rssi behave exactly like the
// original loss models they replace — same draws from the same
// stream (the byte-compat contract is pinned end-to-end by the goldens;
// this is the unit-level view).
func TestStatelessModels(t *testing.T) {
	frame := func(spec string) FrameModel {
		m, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		return m.(FrameModel)
	}
	if frame("ideal").Lost(1e9, nil) {
		t.Error("ideal lost a frame")
	}

	rng := xrand.NewNamed(1, "radio")
	if !frame("bernoulli:1").Lost(1, rng) {
		t.Error("bernoulli:1 delivered a frame")
	}
	if frame("bernoulli:0").Lost(1, rng) {
		t.Error("bernoulli:0 lost a frame")
	}

	// rssi at grid spacing: overwhelmingly delivered, and each call draws
	// exactly one NormFloat64 — the legacy sequence.
	rssi := frame("rssi")
	r1 := xrand.NewNamed(42, "radio")
	r2 := xrand.NewNamed(42, "radio")
	losses := 0
	for i := 0; i < 1000; i++ {
		if rssi.Lost(4.5, r1) {
			losses++
		}
		r2.NormFloat64()
	}
	if losses > 100 {
		t.Errorf("rssi at grid spacing lost %d/1000 frames; calibration broken", losses)
	}
	if r1.Uint64() != r2.Uint64() {
		t.Error("rssi.Lost draw sequence diverges from one NormFloat64 per call")
	}
}
