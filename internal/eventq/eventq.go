// Package eventq is a discrete-event calendar over virtual seconds.
// The shard engine keeps the cluster's control-plane one-shots on it —
// workload arrivals and fault windows — and Run drains them in (time,
// sequence) order so simulations are deterministic.
package eventq

import (
	"container/heap"
	"errors"
	"fmt"
)

// Handler runs when its event fires. It may schedule further events.
type Handler func(now float64)

type event struct {
	at  float64
	seq uint64 // tie-break: FIFO among equal timestamps
	fn  Handler
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = event{} // release the closure
	*h = old[:n-1]
	return e
}

// Sim is the simulator clock and event calendar. Not safe for
// concurrent use: a simulation is a single logical thread.
type Sim struct {
	now     float64
	seq     uint64
	heap    eventHeap
	stopped bool
}

// New returns a simulator at time 0.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn at absolute time t. Scheduling in the past is an
// error (events must not violate causality).
func (s *Sim) At(t float64, fn Handler) error {
	if fn == nil {
		return errors.New("eventq: nil handler")
	}
	if t < s.now {
		return fmt.Errorf("eventq: schedule at %v before now %v", t, s.now)
	}
	heap.Push(&s.heap, event{at: t, seq: s.seq, fn: fn})
	s.seq++
	return nil
}

// Stop halts Run after the current event returns.
func (s *Sim) Stop() { s.stopped = true }

// Run drains events until the calendar empties, the horizon passes, or
// Stop is called. Events at exactly the horizon still fire. It returns
// the number of events executed.
func (s *Sim) Run(horizon float64) int {
	s.stopped = false
	executed := 0
	for len(s.heap) > 0 && !s.stopped {
		if s.heap[0].at > horizon {
			break
		}
		e := heap.Pop(&s.heap).(event)
		s.now = e.at
		e.fn(s.now)
		executed++
	}
	// Advance the clock to the horizon even if the calendar drained
	// early, so repeated Run calls observe contiguous time.
	if !s.stopped && s.now < horizon {
		s.now = horizon
	}
	return executed
}

// AdvanceTo moves the clock forward to t without firing anything. It
// is a no-op if t <= now. The caller must ensure no pending event is
// earlier than t (the shard engine advances to the earliest pending
// barrier, which satisfies this by construction); otherwise a later
// Run would move the clock backwards when it fires the skipped event.
func (s *Sim) AdvanceTo(t float64) {
	if t > s.now {
		s.now = t
	}
}

// Len returns the number of scheduled events.
func (s *Sim) Len() int { return len(s.heap) }

// NextAt returns the timestamp of the earliest pending event, or false
// if the calendar is empty.
func (s *Sim) NextAt() (float64, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}
