// Package attacker implements the paper's novel (R, H, M, s0, D)-attacker
// model (Section III-B, Figure 1): a distributed eavesdropper that hears
// every transmission within radio range of its current location, collects
// up to R messages, remembers the last H visited locations, makes at most
// M moves per TDMA period, starts at s0 and chooses its next location with
// a decision function D.
//
// The attacker perceives only traffic context — sender identity, position
// and timing — never payload contents (the paper assumes encryption).
package attacker

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"slpdas/internal/radio"
	"slpdas/internal/topo"
	"slpdas/internal/xrand"
)

// Params are the (R, H, M, s0) attacker parameters.
type Params struct {
	R     int         // messages heard before a move decision
	H     int         // history length (0 = memoryless)
	M     int         // moves per period
	Start topo.NodeID // s0
}

// ParseParams parses an "R,H,M" tuple, the command-line form of the
// parameters; s0 is left to the caller. Anything but exactly three
// integers is an error, so a trailing field cannot be silently dropped.
func ParseParams(s string) (Params, error) {
	fields := strings.Split(s, ",")
	var v [3]int
	if len(fields) != len(v) {
		return Params{}, fmt.Errorf("bad attacker tuple %q (want R,H,M)", s)
	}
	for i, f := range fields {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return Params{}, fmt.Errorf("bad attacker tuple %q (want R,H,M)", s)
		}
		v[i] = n
	}
	return Params{R: v[0], H: v[1], M: v[2]}, nil
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.R < 1 {
		return fmt.Errorf("attacker: R must be >= 1, got %d", p.R)
	}
	if p.H < 0 {
		return fmt.Errorf("attacker: H must be >= 0, got %d", p.H)
	}
	if p.M < 1 {
		return fmt.Errorf("attacker: M must be >= 1, got %d", p.M)
	}
	return nil
}

// Heard is one overheard transmission, in arrival order.
type Heard struct {
	From topo.NodeID
	At   time.Duration
}

// FirstHeard moves to the origin of the first message heard — the D of the
// (1, 0, 1, s0, D)-attacker in the paper: "when the attacker hears the
// first message coming from a location j, it will move to j".
type FirstHeard struct{}

// Decide implements Strategy.
func (FirstHeard) Decide(heard []Heard, _ []topo.NodeID, cur topo.NodeID, _ *rand.Rand) topo.NodeID {
	if len(heard) == 0 {
		return cur
	}
	return heard[0].From
}

// RandomHeard moves to a uniformly random heard origin — a weaker,
// non-gradient-following eavesdropper used in the attacker-strength study.
type RandomHeard struct{}

// Decide implements Strategy.
func (RandomHeard) Decide(heard []Heard, _ []topo.NodeID, cur topo.NodeID, rng *rand.Rand) topo.NodeID {
	if len(heard) == 0 {
		return cur
	}
	return heard[rng.IntN(len(heard))].From
}

// UnvisitedFirst moves to the first heard origin not in the history,
// falling back to the first heard origin. With H > 0 this attacker avoids
// ping-ponging between two loud nodes.
type UnvisitedFirst struct{}

// Decide implements Strategy.
func (UnvisitedFirst) Decide(heard []Heard, history []topo.NodeID, cur topo.NodeID, _ *rand.Rand) topo.NodeID {
	if len(heard) == 0 {
		return cur
	}
	for _, h := range heard {
		visited := false
		for _, v := range history {
			if v == h.From {
				visited = true
				break
			}
		}
		if !visited && h.From != cur {
			return h.From
		}
	}
	return heard[0].From
}

// HistoryStore is an H-window of departed locations (most recent last,
// length <= H). Every attacker owns a private store by default; a
// multi-attacker hunt may share one store across its eavesdroppers so the
// whole team avoids locations any member has already visited. All access
// happens on the single simulation goroutine.
type HistoryStore struct {
	h   int
	buf []topo.NodeID
}

// NewHistoryStore creates a window keeping the last h locations; h <= 0
// yields an always-empty (memoryless) store.
func NewHistoryStore(h int) *HistoryStore {
	return &HistoryStore{h: h}
}

// Record appends a departed location, evicting the oldest past H entries.
func (s *HistoryStore) Record(n topo.NodeID) {
	if s.h <= 0 {
		return
	}
	s.buf = append(s.buf, n)
	if len(s.buf) > s.h {
		s.buf = s.buf[1:]
	}
}

// Attacker is the live eavesdropper process driven by radio observations.
// It implements radio.Observer.
type Attacker struct {
	g      *topo.Graph
	params Params
	strat  Strategy
	source topo.NodeID
	rng    *rand.Rand

	active     bool
	cur        topo.NodeID
	msgs       []Heard
	moves      int
	moved      bool // relocated during the current period
	hist       *HistoryStore
	path       []topo.NodeID // visited locations, including start; see SetPathCap
	pathCap    int           // 0 = unbounded; n >= 1 keeps the first n locations
	movesTotal int           // relocations over the whole hunt, never capped
	captured   bool
	capAt      time.Duration

	// OnCapture, when non-nil, fires once at the capture instant.
	OnCapture func(at time.Duration)
}

// New creates the index-th eavesdropper of a (possibly multi-attacker)
// hunt for source on graph g, deciding with the given strategy instance.
// The instance must be fresh — strategies may keep state. Index 0 draws from the "attacker" stream, so a
// single-attacker run's draws depend only on the seed; higher indices get
// independent streams. The attacker is inert until ActivateAt; register it
// on the medium with radio.Medium.AddObserver.
func New(g *topo.Graph, params Params, strat Strategy, source topo.NodeID, seed uint64, index int) (*Attacker, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if !g.Valid(params.Start) {
		return nil, fmt.Errorf("attacker: invalid start node %d", params.Start)
	}
	if !g.Valid(source) {
		return nil, fmt.Errorf("attacker: invalid source node %d", source)
	}
	if ga, ok := strat.(GraphAware); ok {
		ga.Bind(g, params.Start)
	}
	label := "attacker"
	if index > 0 {
		label = fmt.Sprintf("attacker:%d", index)
	}
	return &Attacker{
		g:      g,
		params: params,
		strat:  strat,
		source: source,
		rng:    xrand.NewNamed(seed, label),
		hist:   NewHistoryStore(params.H),
		cur:    params.Start,
		path:   []topo.NodeID{params.Start},
	}, nil
}

// ShareHistory replaces the attacker's private H-window with a shared
// store. Call before the hunt starts; the store's own window length
// governs eviction for every sharer.
func (a *Attacker) ShareHistory(s *HistoryStore) { a.hist = s }

// SetPathCap bounds the recorded walk: 0 (the default) records every
// visited location, n >= 1 keeps only the first n locations including s0,
// and a negative cap keeps s0 alone. The cap affects recording only —
// moves, H-window bookkeeping, capture detection and Moves() proceed
// identically — so a 10⁶-node hunt no longer accumulates an unbounded
// walk it will never render. Call before the hunt starts.
func (a *Attacker) SetPathCap(n int) {
	if n < 0 {
		n = 1
	}
	a.pathCap = n
	if n > 0 && len(a.path) > n {
		a.path = a.path[:n]
	}
}

// Moves returns the total number of relocations over the whole hunt —
// the walk length that survives any path cap.
func (a *Attacker) Moves() int { return a.movesTotal }

// ActivateAt begins the hunt: the attacker starts processing observations.
// Call at source-activation time (the start of the data phase), passing
// the current virtual time. An attacker that is already standing on the
// source — Start == source — has captured it the moment the hunt begins,
// without needing to overhear anything or move.
func (a *Attacker) ActivateAt(now time.Duration) {
	a.active = true
	a.checkCapture(now)
}

// checkCapture marks the capture once the attacker's location is the
// source, firing OnCapture exactly once.
func (a *Attacker) checkCapture(now time.Duration) {
	if a.captured || a.cur != a.source {
		return
	}
	a.captured = true
	a.capAt = now
	if a.OnCapture != nil {
		a.OnCapture(now)
	}
}

// NextPeriodAt implements the NextP action of Figure 1 at the period
// boundary now: the message buffer and the move budget reset, and a
// PeriodAware strategy may relocate, stamped (with any capture it causes)
// at now. The caller, who knows the period length as the paper's attacker
// does, schedules it.
func (a *Attacker) NextPeriodAt(now time.Duration) {
	if a.active && !a.captured {
		if pa, ok := a.strat.(PeriodAware); ok {
			next := pa.PeriodEnd(a.moved, a.cur)
			if next != a.cur && a.g.HasEdge(a.cur, next) {
				a.relocate(next, now)
			}
		}
	}
	a.msgs = a.msgs[:0]
	a.moves = 0
	a.moved = false
}

// Location implements radio.Observer.
func (a *Attacker) Location() topo.Point { return a.g.Position(a.cur) }

// Overhear implements radio.Observer: the ARcv action of Figure 1 followed
// by the Decide action once R messages have been captured.
func (a *Attacker) Overhear(obs radio.Observation) {
	if !a.active || a.captured {
		return
	}
	if len(a.msgs) < a.params.R {
		a.msgs = append(a.msgs, Heard{From: obs.From, At: obs.At})
	}
	if len(a.msgs) >= a.params.R && a.moves < a.params.M {
		a.decideMove(obs.At)
	}
}

// decideMove is the Decide action of Figure 1. The strategy reads the live
// H-window: it changes only in relocate, after Decide returns.
func (a *Attacker) decideMove(now time.Duration) {
	next := a.strat.Decide(a.msgs, a.hist.buf, a.cur, a.rng)
	a.moves++
	a.msgs = a.msgs[:0]
	if next == a.cur {
		return // staying consumed the move
	}
	// Physical constraint: the attacker walks, so it only relocates to
	// positions it actually heard, which are within one radio range.
	if !a.g.HasEdge(a.cur, next) {
		return
	}
	a.relocate(next, now)
}

// relocate moves the attacker to an adjacent node, recording the H-window
// and path, and checks for capture. The H-window records departed
// locations only on actual relocation: "stay" decisions and edge-rejected
// moves used to pollute it with duplicates of the current node, flushing
// genuine visit history out of small windows and breaking UnvisitedFirst.
func (a *Attacker) relocate(next topo.NodeID, now time.Duration) {
	a.hist.Record(a.cur)
	a.cur = next
	a.moved = true
	a.movesTotal++
	if a.pathCap == 0 || len(a.path) < a.pathCap {
		a.path = append(a.path, next)
	}
	a.checkCapture(now)
}

// Captured reports whether the source has been reached, and when.
func (a *Attacker) Captured() (bool, time.Duration) { return a.captured, a.capAt }

// Path returns the recorded walk, in order, starting at s0 — every node
// visited unless SetPathCap truncated recording. Moves always counts the
// full walk.
func (a *Attacker) Path() []topo.NodeID {
	return append([]topo.NodeID(nil), a.path...)
}

var _ radio.Observer = (*Attacker)(nil)
