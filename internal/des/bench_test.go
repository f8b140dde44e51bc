package des

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkScheduleRun measures the steady-state schedule→execute cycle:
// each executed event schedules its successor, so the queue stays warm and
// the benchmark isolates the per-event cost of the queue and event pool.
func BenchmarkScheduleRun(b *testing.B) {
	s := New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.ScheduleAfter(time.Millisecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.ScheduleAfter(0, tick)
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleFanout measures bursty scheduling: 64 events per batch,
// mirroring a radio broadcast fanning deliveries out to a neighbourhood.
func BenchmarkScheduleFanout(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			s.ScheduleAfter(time.Duration(j)*time.Microsecond, fn)
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// tdmaNode schedules the queue traffic of one node's TDMA period in
// core: a period-boundary event that schedules the node's slot event at
// its offset into the period and schedules itself one period later.
type tdmaNode struct {
	s      *Simulator
	offset time.Duration
	slot   nopRunner
}

const (
	tdmaSlots      = 100 // Table I
	tdmaSlotLength = 10 * time.Millisecond
	tdmaPeriod     = tdmaSlots * tdmaSlotLength
)

func (n *tdmaNode) Run() {
	n.s.ScheduleRunnerAfter(n.offset, &n.slot)
	n.s.ScheduleRunnerAfter(tdmaPeriod, n)
}

// BenchmarkScheduleTDMA measures the queue under TDMA traffic: n nodes
// share one period boundary and spread their slot events over the
// period's slots, so events pile onto few instants. One op is one period,
// 2n events; ns/event divides it out.
func BenchmarkScheduleTDMA(b *testing.B) {
	for _, n := range []int{121, 20000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := New()
			nodes := make([]tdmaNode, n)
			for i := range nodes {
				nodes[i] = tdmaNode{s: s, offset: time.Duration(i%tdmaSlots) * tdmaSlotLength}
				if err := s.ScheduleRunner(0, &nodes[i]); err != nil {
					b.Fatal(err)
				}
			}
			end := tdmaPeriod - 1
			if err := s.RunUntil(end); err != nil { // warm up one period
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				end += tdmaPeriod
				if err := s.RunUntil(end); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*n*b.N), "ns/event")
		})
	}
}
