package des

import (
	"errors"
	"sort"
	"testing"
	"time"
)

// The queue-order fuzz target drives a Simulator and a reference model
// with the same operations and compares them after each one. The model
// keeps its queue as a plain slice and stable-sorts it on (at, seq) before
// every pop, which is the ordering contract with no data structure in the
// way.

const (
	fuzzUnit = time.Millisecond
	fuzzFar  = time.Duration(1) << 40 // far beyond every deadline the fuzzer picks
)

// Event kinds: what a body does besides recording that it ran.
const (
	kindPlain   = iota
	kindStop    // calls Stop
	kindSpawn   // schedules a plain child on its own instant or the next
	kindBatched // charges two extra events through CountExecuted
	numKinds
)

// spawnBase offsets a spawned child's id from its parent's.
const spawnBase = 1 << 20

type modelEvent struct {
	id        int
	kind      int
	at        time.Duration
	seq       int
	cancelled bool
	gone      bool // executed, reaped, or dropped by a Reset
}

type queueModel struct {
	now      time.Duration
	queue    []*modelEvent // cancelled events stay until reaped, as in the Simulator
	seq      int
	executed uint64
	budget   uint64
	stopped  bool
	order    []int
}

func (m *queueModel) schedule(ev *modelEvent) {
	ev.seq = m.seq
	m.seq++
	m.queue = append(m.queue, ev)
}

func (m *queueModel) runUntil(deadline time.Duration) error {
	m.stopped = false
	for len(m.queue) > 0 && !m.stopped {
		sort.SliceStable(m.queue, func(i, j int) bool {
			a, b := m.queue[i], m.queue[j]
			if a.at != b.at {
				return a.at < b.at
			}
			return a.seq < b.seq
		})
		next := m.queue[0]
		if next.cancelled {
			next.gone = true
			m.queue = m.queue[1:]
			continue
		}
		if deadline >= 0 && next.at > deadline {
			m.now = deadline
			return nil
		}
		if m.budget > 0 && m.executed >= m.budget {
			return ErrEventBudget
		}
		m.queue = m.queue[1:]
		m.now = next.at
		m.executed++
		next.gone = true
		m.order = append(m.order, next.id)
		switch next.kind {
		case kindStop:
			m.stopped = true
		case kindSpawn:
			child := &modelEvent{id: next.id + spawnBase, kind: kindPlain, at: m.now + time.Duration(next.id%2)*fuzzUnit}
			m.schedule(child)
		case kindBatched:
			m.executed += 2
		}
	}
	if deadline >= 0 && m.now < deadline && len(m.queue) == 0 {
		m.now = deadline
	}
	return nil
}

func (m *queueModel) reset() {
	for _, ev := range m.queue {
		ev.gone = true
	}
	m.queue = m.queue[:0]
	m.now = 0
	m.executed = 0
	m.stopped = false
}

// fuzzBody is the Runner and the closure body of one fuzzed event.
type fuzzBody struct {
	s     *Simulator
	id    int
	kind  int
	order *[]int
}

func (b *fuzzBody) Run() {
	*b.order = append(*b.order, b.id)
	switch b.kind {
	case kindStop:
		b.s.Stop()
	case kindSpawn:
		child := &fuzzBody{s: b.s, id: b.id + spawnBase, kind: kindPlain, order: b.order}
		b.s.ScheduleRunnerAfter(time.Duration(b.id%2)*fuzzUnit, child)
	case kindBatched:
		b.s.CountExecuted(2)
	}
}

// FuzzQueueOrder decodes its input into interleaved Schedule,
// ScheduleRunnerAfter, Cancel, RunUntil, SetEventBudget, Reset and
// Stop-ing events, and checks the Simulator against the reference model:
// execution order, Now, Pending, Executed, returned errors and every
// handle's Pending. Executed, reaped and discarded boxes are all recycled,
// so a stale handle's Cancel that reached a box's next occupant would
// show as a misordered run. checkQueue adds the queue's own invariants,
// so an index fault shows before it misorders a run.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 3, 0})
	f.Add([]byte{0, 3, 1, 3, 0, 3, 2, 0, 3, 1, 1, 0x17, 3, 0})
	f.Add([]byte{1, 0x22, 1, 0x12, 0, 0x31, 4, 1, 3, 0, 5, 0, 3, 0})
	f.Add([]byte{0, 7, 0, 5, 6, 0, 1, 0x20, 3, 3, 0, 0x0e, 2, 1, 3, 0})
	f.Add([]byte{1, 0x10, 1, 0x10, 0, 0x30, 3, 2, 4, 2, 3, 0, 5, 0, 3, 0, 6, 0, 3, 0})
	var wide []byte // 96 events on 96 instants, then run them all
	for k := 0; k < 96; k++ {
		wide = append(wide, 0x80|byte(k%16)<<3|byte(k%2), byte(k/16))
	}
	f.Add(append(wide, 3, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			data = data[:400]
		}
		s := New()
		m := &queueModel{}
		var got []int
		var handles []Event
		var events []*modelEvent

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := int(data[i]&7)%7, int(data[i+1])
			kind := (arg >> 4) % numKinds
			// The op byte's top bit moves a new event to one of 16 more
			// distant instants, enough of them to make the index grow.
			spread := time.Duration(0)
			if data[i]&0x80 != 0 {
				spread = time.Duration(data[i]>>3&0xf+1) * 8 * fuzzUnit
			}
			var realErr, modelErr error
			switch op {
			case 0, 1: // Schedule, ScheduleRunnerAfter
				d := time.Duration(arg%8)*fuzzUnit + spread
				switch arg % 8 {
				case 6:
					d = fuzzFar
				case 7:
					d = -fuzzUnit // in the past: rejected or clamped
				}
				id := len(events)
				body := &fuzzBody{s: s, id: id, kind: kind, order: &got}
				ev := &modelEvent{id: id, kind: kind, at: s.Now() + d}
				if op == 0 {
					h, err := s.Schedule(s.Now()+d, body.Run)
					if d < 0 {
						if !errors.Is(err, ErrPastEvent) {
							t.Fatalf("op %d: Schedule in the past: err = %v, want ErrPastEvent", i/2, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("op %d: Schedule: %v", i/2, err)
					}
					handles = append(handles, h)
				} else {
					if d < 0 {
						ev.at = m.now
					}
					handles = append(handles, s.ScheduleRunnerAfter(d, body))
				}
				events = append(events, ev)
				m.schedule(ev)
			case 2: // Cancel a live, cancelled or stale handle
				if len(handles) == 0 {
					continue
				}
				k := arg % len(handles)
				handles[k].Cancel()
				if !events[k].gone {
					events[k].cancelled = true
				}
			case 3: // RunUntil
				deadline := time.Duration(-1)
				if arg%4 != 0 {
					deadline = m.now + time.Duration(arg%8)*fuzzUnit
				}
				realErr, modelErr = s.RunUntil(deadline), m.runUntil(deadline)
			case 4: // SetEventBudget a few events ahead, or back to unlimited
				n := uint64(0)
				if arg%5 != 0 {
					n = m.executed + uint64(arg%5)
				}
				s.SetEventBudget(n)
				m.budget = n
			case 5: // resume after a budget stop, or run on past a Stop
				realErr, modelErr = s.Run(), m.runUntil(-1)
			case 6:
				s.Reset()
				m.reset()
			}
			if errors.Is(realErr, ErrEventBudget) != errors.Is(modelErr, ErrEventBudget) || (realErr == nil) != (modelErr == nil) {
				t.Fatalf("op %d: err = %v, model %v", i/2, realErr, modelErr)
			}
			if len(got) != len(m.order) {
				t.Fatalf("op %d: executed ids %v, model %v", i/2, got, m.order)
			}
			for j := range got {
				if got[j] != m.order[j] {
					t.Fatalf("op %d: executed ids %v, model %v", i/2, got, m.order)
				}
			}
			if s.Now() != m.now || s.Pending() != len(m.queue) || s.Executed() != m.executed {
				t.Fatalf("op %d: Now %v Pending %d Executed %d; model %v %d %d",
					i/2, s.Now(), s.Pending(), s.Executed(), m.now, len(m.queue), m.executed)
			}
			checkQueue(t, s)
			for k, h := range handles {
				ev := events[k]
				if pending := !ev.gone && !ev.cancelled; h.Pending() != pending {
					t.Fatalf("op %d: handle %d Pending %v; model %v", i/2, k, h.Pending(), pending)
				}
			}
		}
	})
}

// checkQueue checks the Simulator's queue against its own invariants,
// which the model cannot see: the heap is a heap on distinct instants,
// every instant is reachable in the index from its home slot without
// crossing an empty one, its indexed tail ends its FIFO, and the FIFOs
// hold exactly Pending() events.
func checkQueue(t *testing.T, s *Simulator) {
	t.Helper()
	indexed := 0
	for _, in := range s.index {
		if in.box != nil {
			indexed++
		}
	}
	if indexed != len(s.heap) {
		t.Fatalf("index holds %d instants, heap %d", indexed, len(s.heap))
	}
	events := 0
	for i, head := range s.heap {
		if i > 0 && s.heap[(i-1)/4].at >= head.at {
			t.Fatalf("heap order broken at %d: parent %v, child %v", i, s.heap[(i-1)/4].at, head.at)
		}
		tail := head.box
		for events++; tail.next != nil; events++ {
			tail = tail.next
		}
		j := s.home(head.at)
		for s.index[j].box != nil && s.index[j].at != head.at {
			j = (j + 1) & (len(s.index) - 1)
		}
		if s.index[j].box != tail {
			t.Fatalf("instant %v: index slot %d holds %p, want the FIFO's tail %p", head.at, j, s.index[j].box, tail)
		}
	}
	if events != s.Pending() {
		t.Fatalf("FIFOs hold %d events, Pending() = %d", events, s.Pending())
	}
}
