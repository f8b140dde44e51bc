// Package xrand provides deterministic random-number plumbing for the
// simulator: a SplitMix64 mixer for deriving independent per-component
// seeds from a single run seed, PCG-backed streams, and jitter helpers.
//
// Determinism contract: a simulation run is a pure function of its seed.
// Every component (node, radio, attacker) derives its own stream from the
// run seed and a stable component label, so adding a consumer never
// perturbs the draws seen by existing consumers.
package xrand

import (
	"math/rand/v2"
	"time"
)

// SplitMix64 advances the SplitMix64 sequence from state x and returns the
// next output. It is the standard seed-mixing function from Steele et al.,
// "Fast Splittable Pseudorandom Number Generators" (OOPSLA 2014).
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix combines a run seed with component labels into a new seed. Each label
// is folded through SplitMix64 so that related labels produce unrelated
// streams.
func Mix(seed uint64, labels ...uint64) uint64 {
	out := SplitMix64(seed)
	for _, l := range labels {
		out = SplitMix64(out ^ SplitMix64(l))
	}
	return out
}

// MixString folds a string label into a seed. Used for named components
// ("radio", "attacker") whose draws must not depend on registration order.
func MixString(seed uint64, label string) uint64 {
	// FNV-1a over the label, then mixed.
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return Mix(seed, h)
}

// Seeds returns the PCG seed pair for seed and labels. Components own
// their PCG state and seed it from this pair, so a run Reset can reseed
// the generator in place instead of allocating a fresh one.
func Seeds(seed uint64, labels ...uint64) (uint64, uint64) {
	mixed := Mix(seed, labels...)
	return mixed, SplitMix64(mixed)
}

// SeedsNamed is Seeds for a named component, matching NewNamed.
func SeedsNamed(seed uint64, label string) (uint64, uint64) {
	mixed := MixString(seed, label)
	return mixed, SplitMix64(mixed)
}

// Wrap returns a *rand.Rand drawing from src. Components that own their
// PCG state (seeded via Seeds/SeedsNamed so a run Reset can reseed the
// generator in place) wrap it here instead of calling rand.New directly:
// slplint's seedpurity analyzer keeps rand constructors out of simulation
// packages so that every stream provably passes through this package.
func Wrap(src rand.Source) *rand.Rand {
	return rand.New(src)
}

// NewRaw returns a PCG-backed *rand.Rand seeded with the given pair
// verbatim, without the SplitMix64 label mixing of Seeds/SeedsNamed. It
// exists for streams whose raw seeding predates this package and is pinned
// by committed goldens (the topology builders); new components must seed
// through Seeds/SeedsNamed or use NewNamed so their streams carry labels.
func NewRaw(seed1, seed2 uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed1, seed2))
}

// NewNamed returns a PCG-backed *rand.Rand for a named component.
func NewNamed(seed uint64, label string) *rand.Rand {
	return rand.New(rand.NewPCG(SeedsNamed(seed, label)))
}

// Jitter returns a uniformly distributed duration in [0, max). A max of
// zero or less returns zero; used to de-synchronise broadcasts during the
// setup phases, as TOSSIM's boot-time randomisation does.
func Jitter(r *rand.Rand, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(r.Int64N(int64(max)))
}

// JitterAround returns base perturbed by a uniform offset in
// [-spread/2, +spread/2), clamped to be non-negative.
func JitterAround(r *rand.Rand, base, spread time.Duration) time.Duration {
	if spread <= 0 {
		return base
	}
	d := base + time.Duration(r.Int64N(int64(spread))) - spread/2
	if d < 0 {
		return 0
	}
	return d
}
