// Package verify implements the paper's decision procedure (Algorithm 1,
// Section IV-C): a model-checking-style exhaustive exploration of every
// attacker trace that a (R, H, M, s0, D)-attacker can take against a fixed
// TDMA slot assignment. If any valid trace reaches the source within the
// safety period δ, the schedule is NOT δ-SLP-aware and the violating trace
// is returned as a counterexample; otherwise the schedule is δ-SLP-aware.
//
// Trace validity follows Algorithm 1 line by line:
//
//   - the attacker moves one hop at a time ((si, si+1) ∈ E);
//   - the destination must be among the R lowest-slot transmitters audible
//     at the current location (1HopNsWithRLowestSlots) and permitted by D;
//   - a move to a *later* slot can happen within the current period and
//     consumes one of the M per-period moves (lines 11–12); a move to an
//     *earlier* slot means that slot has already passed, so the attacker
//     waits for the next period (line 10: period+1, moves←1).
//
// Interpretation notes (documented in DESIGN.md): the audible transmitter
// set is the closed neighbourhood N(x) ∪ {x} minus the sink — the attacker
// hears the node it is sitting at, so a local slot minimum is an absorbing
// state, exactly matching the live attacker in internal/attacker. Moves to
// the current location are pruned: they can never enable an earlier
// capture.
package verify

import (
	"fmt"
	"sort"

	"slpdas/internal/attacker"
	"slpdas/internal/schedule"
	"slpdas/internal/topo"
)

// Candidate is one audible transmitter: a node and its slot.
type Candidate struct {
	Node topo.NodeID
	Slot int
}

// DecisionSet is the set-valued D function of the decision procedure:
// given the audible candidate set B (sorted by slot, i.e. arrival order)
// and the recent-location history, it returns every location the attacker
// might move to. The exploration branches over all of them.
type DecisionSet func(candidates []Candidate, history []topo.NodeID) []topo.NodeID

// FirstHeardD models the deterministic paper attacker: move to the origin
// of the first message heard (the lowest-slot audible transmitter).
func FirstHeardD(candidates []Candidate, _ []topo.NodeID) []topo.NodeID {
	if len(candidates) == 0 {
		return nil
	}
	return []topo.NodeID{candidates[0].Node}
}

// AnyHeardD models the strongest nondeterministic attacker: it may move to
// any of the R lowest-slot audible transmitters.
func AnyHeardD(candidates []Candidate, _ []topo.NodeID) []topo.NodeID {
	out := make([]topo.NodeID, len(candidates))
	for i, c := range candidates {
		out[i] = c.Node
	}
	return out
}

// UnvisitedD is AnyHeardD restricted to locations outside the history —
// the natural use of H > 0.
func UnvisitedD(candidates []Candidate, history []topo.NodeID) []topo.NodeID {
	var out []topo.NodeID
	for _, c := range candidates {
		visited := false
		for _, h := range history {
			if h == c.Node {
				visited = true
				break
			}
		}
		if !visited {
			out = append(out, c.Node)
		}
	}
	if len(out) == 0 {
		return AnyHeardD(candidates, history)
	}
	return out
}

// Options tune the exploration.
type Options struct {
	// AllowWait permits the attacker to defer a later-slot move to the
	// next period when its per-period move budget is exhausted. Algorithm 1
	// as printed discards such traces; the live attacker can simply wait,
	// so enabling this explores a slightly stronger attacker.
	AllowWait bool
	// MaxStates bounds the exploration (0 = default 2,000,000).
	MaxStates int
}

// Result is the outcome of VerifySchedule. Mirroring Algorithm 1, SLPAware
// == true corresponds to (True, ⊥, δ) and SLPAware == false comes with the
// violating trace pc and its capture period p.
type Result struct {
	SLPAware       bool
	Counterexample []topo.NodeID // s0 … source; nil when SLPAware
	CapturePeriod  int           // periods used by the counterexample
	StatesExplored int
}

// state is one node of the explored transition system.
type state struct {
	node   topo.NodeID
	period int
	moves  int
	histID int // interned history ring id
}

// VerifySchedule is Algorithm 1: it decides whether assignment a is
// δ-SLP-aware for source against the given attacker on graph g, returning
// a minimal-period counterexample when it is not.
func VerifySchedule(g *topo.Graph, a *schedule.Assignment, p attacker.Params, d DecisionSet, delta int, source topo.NodeID, opts Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, fmt.Errorf("verify: %w", err)
	}
	if !g.Valid(p.Start) || !g.Valid(source) {
		return Result{}, fmt.Errorf("verify: invalid start %d or source %d", p.Start, source)
	}
	if delta < 0 {
		return Result{}, fmt.Errorf("verify: negative safety period %d", delta)
	}
	if d == nil {
		d = FirstHeardD
	}
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = 2_000_000
	}

	e := &explorer{
		g:       g,
		assign:  a,
		params:  p,
		decide:  d,
		delta:   delta,
		source:  source,
		opts:    opts,
		visited: make(map[state]struct{}),
		histTab: map[string]int{"": 0},
		hists:   [][]topo.NodeID{nil},
	}

	// Dijkstra-style exploration ordered by (period, moves): the first
	// time the source is dequeued yields a minimal-period counterexample.
	e.push(item{st: state{node: p.Start, period: 0, moves: 0, histID: 0}, parent: -1})
	for len(e.heap) > 0 {
		it := e.pop()
		if _, seen := e.visited[it.st]; seen {
			continue
		}
		e.visited[it.st] = struct{}{}
		e.trace = append(e.trace, it)
		self := len(e.trace) - 1

		if it.st.node == source {
			return Result{
				SLPAware:       false,
				Counterexample: e.rebuild(self),
				CapturePeriod:  it.st.period,
				StatesExplored: len(e.visited),
			}, nil
		}
		if len(e.visited) >= maxStates {
			return Result{}, fmt.Errorf("verify: state budget %d exhausted", maxStates)
		}
		e.expand(it.st, self)
	}
	return Result{SLPAware: true, CapturePeriod: delta, StatesExplored: len(e.visited)}, nil
}

type item struct {
	st     state
	parent int // index into explorer.trace, -1 for root
}

type explorer struct {
	g       *topo.Graph
	assign  *schedule.Assignment
	params  attacker.Params
	decide  DecisionSet
	delta   int
	source  topo.NodeID
	opts    Options
	visited map[state]struct{}
	heap    []item
	trace   []item
	histTab map[string]int
	hists   [][]topo.NodeID
}

// Audible computes 1HopNsWithRLowestSlots(x, F, R) over the closed
// neighbourhood: the R lowest-slot transmitters the attacker can hear from
// x. The sink never transmits and is excluded.
func Audible(g *topo.Graph, a *schedule.Assignment, x topo.NodeID, r int) []Candidate {
	neigh := g.Neighbors(x)
	cands := make([]Candidate, 0, len(neigh)+1)
	consider := func(n topo.NodeID) {
		if n == a.Sink() || !a.Assigned(n) {
			return
		}
		cands = append(cands, Candidate{Node: n, Slot: a.Slot(n)})
	}
	consider(x)
	for _, m := range neigh {
		consider(m)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Slot != cands[j].Slot {
			return cands[i].Slot < cands[j].Slot
		}
		return cands[i].Node < cands[j].Node
	})
	if len(cands) > r {
		cands = cands[:r]
	}
	return cands
}

func (e *explorer) expand(st state, parent int) {
	cands := Audible(e.g, e.assign, st.node, e.params.R)
	if len(cands) == 0 {
		return
	}
	hist := e.hists[st.histID]
	for _, next := range e.decide(cands, hist) {
		if next == st.node {
			continue // staying is absorbing; cannot enable earlier capture
		}
		if !e.g.HasEdge(st.node, next) {
			continue // line 8: attacker walks one hop at a time
		}
		// Period/move bookkeeping, Algorithm 1 lines 10–12. When the
		// current location has no slot (the attacker starts at the sink,
		// which never transmits), the first move opens the next period.
		var nper, nmov int
		curSlot, ok := e.slotOf(st.node)
		nextSlot, _ := e.slotOf(next)
		switch {
		case !ok || curSlot > nextSlot:
			// Earlier slot already passed: wait for the next period.
			nper, nmov = st.period+1, 1
		case st.moves < e.params.M:
			nper, nmov = st.period, st.moves+1
		case e.opts.AllowWait:
			nper, nmov = st.period+1, 1
		default:
			continue // line 11: move budget exhausted, trace invalid
		}
		if nper > e.delta {
			continue // cannot capture within the safety period
		}
		nh := e.pushHistory(st.histID, st.node)
		ns := state{node: next, period: nper, moves: nmov, histID: nh}
		if _, seen := e.visited[ns]; !seen {
			e.push(item{st: ns, parent: parent})
		}
	}
}

func (e *explorer) slotOf(n topo.NodeID) (int, bool) {
	if n == e.assign.Sink() || !e.assign.Assigned(n) {
		return 0, false
	}
	return e.assign.Slot(n), true
}

// pushHistory interns the ring buffer after appending loc.
func (e *explorer) pushHistory(histID int, loc topo.NodeID) int {
	if e.params.H == 0 {
		return 0
	}
	prev := e.hists[histID]
	next := make([]topo.NodeID, 0, e.params.H)
	if len(prev) == e.params.H {
		next = append(next, prev[1:]...)
	} else {
		next = append(next, prev...)
	}
	next = append(next, loc)
	key := fmt.Sprint(next)
	if id, ok := e.histTab[key]; ok {
		return id
	}
	id := len(e.hists)
	e.hists = append(e.hists, next)
	e.histTab[key] = id
	return id
}

// rebuild reconstructs the counterexample trace from parent pointers.
func (e *explorer) rebuild(idx int) []topo.NodeID {
	var rev []topo.NodeID
	for i := idx; i >= 0; i = e.trace[i].parent {
		rev = append(rev, e.trace[i].st.node)
	}
	out := make([]topo.NodeID, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// --- binary min-heap ordered by (period, moves) ---
//
// Items with equal (period, moves) leave the heap in whatever order the
// sift-up and sift-down swaps leave them, not in insertion order; that
// order is deterministic, and it picks which of several minimal-period
// counterexamples VerifySchedule returns.

func (e *explorer) push(it item) {
	e.heap = append(e.heap, it)
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(e.heap[i], e.heap[p]) {
			break
		}
		e.heap[i], e.heap[p] = e.heap[p], e.heap[i]
		i = p
	}
}

func (e *explorer) pop() item {
	top := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && less(e.heap[l], e.heap[small]) {
			small = l
		}
		if r < last && less(e.heap[r], e.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		e.heap[i], e.heap[small] = e.heap[small], e.heap[i]
		i = small
	}
	return top
}

func less(a, b item) bool {
	if a.st.period != b.st.period {
		return a.st.period < b.st.period
	}
	return a.st.moves < b.st.moves
}

// MinCapturePeriod returns the smallest number of periods in which the
// attacker can capture source under assignment a, searching up to horizon
// periods. ok is false if no trace captures within the horizon. This is
// the capture time δ(G,P,A) of Definition 4 measured in periods, and the
// quantity compared in Definition 5.
func MinCapturePeriod(g *topo.Graph, a *schedule.Assignment, p attacker.Params, d DecisionSet, source topo.NodeID, horizon int, opts Options) (int, bool, error) {
	res, err := VerifySchedule(g, a, p, d, horizon, source, opts)
	if err != nil {
		return 0, false, err
	}
	if res.SLPAware {
		return 0, false, nil
	}
	return res.CapturePeriod, true, nil
}

// IsSLPAwareDAS implements Definition 5: Fs is a strong (resp. weak)
// SLP-aware DAS for source against the attacker iff (1) Fs satisfies the
// DAS property and (2) its capture time strictly exceeds that of the
// reference schedule F. The DAS property is checked at the weak level
// (Definition 3); callers wanting the strong variant can check
// len(schedule.CheckStrongDAS(g, fs)) == 0 separately.
func IsSLPAwareDAS(g *topo.Graph, fs, f *schedule.Assignment, p attacker.Params, d DecisionSet, source topo.NodeID, horizon int, opts Options) (bool, error) {
	if !schedule.IsWeakDAS(g, fs) {
		return false, nil
	}
	capFs, okFs, err := MinCapturePeriod(g, fs, p, d, source, horizon, opts)
	if err != nil {
		return false, err
	}
	capF, okF, err := MinCapturePeriod(g, f, p, d, source, horizon, opts)
	if err != nil {
		return false, err
	}
	switch {
	case !okF:
		// The baseline never captures within the horizon; Fs must also
		// never capture to be at least as private.
		return !okFs, nil
	case !okFs:
		return true, nil // Fs never captured, F did: strictly better
	default:
		return capFs > capF, nil
	}
}
