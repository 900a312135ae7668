package eventq

import (
	"testing"
)

func TestOrderedExecution(t *testing.T) {
	s := New()
	var order []int
	s.At(3, func(float64) { order = append(order, 3) })
	s.At(1, func(float64) { order = append(order, 1) })
	s.At(2, func(float64) { order = append(order, 2) })
	if n := s.Run(10); n != 3 {
		t.Fatalf("executed %d", n)
	}
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
	if s.Now() != 10 {
		t.Fatalf("clock %v, want horizon 10", s.Now())
	}
}

func TestFIFOAmongTies(t *testing.T) {
	s := New()
	var order []string
	s.At(1, func(float64) { order = append(order, "a") })
	s.At(1, func(float64) { order = append(order, "b") })
	s.At(1, func(float64) { order = append(order, "c") })
	s.Run(5)
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("tie order %v", order)
	}
}

func TestHandlersScheduleMore(t *testing.T) {
	s := New()
	count := 0
	var chain Handler
	chain = func(now float64) {
		count++
		if count < 5 {
			s.At(now+1, chain)
		}
	}
	s.At(0, chain)
	s.Run(100)
	if count != 5 {
		t.Fatalf("chain executed %d times", count)
	}
	if s.Now() != 100 {
		t.Fatalf("clock %v", s.Now())
	}
}

func TestHorizonRespected(t *testing.T) {
	s := New()
	fired := false
	s.At(5, func(float64) { fired = true })
	s.Run(4)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if s.Now() != 4 {
		t.Fatalf("clock %v", s.Now())
	}
	// Event at exactly the horizon fires.
	s.Run(5)
	if !fired {
		t.Fatal("event at horizon did not fire")
	}
}

func TestPastSchedulingRejected(t *testing.T) {
	s := New()
	s.At(5, func(float64) {})
	s.Run(5)
	if err := s.At(3, func(float64) {}); err == nil {
		t.Fatal("past scheduling accepted")
	}
	if err := s.At(6, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(float64(i), func(float64) {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run(100)
	if count != 3 {
		t.Fatalf("executed %d, want 3", count)
	}
	// Remaining events still pending; a further Run picks them up.
	s.Run(100)
	if count != 10 {
		t.Fatalf("after resume executed %d", count)
	}
}

func TestNowDuringHandler(t *testing.T) {
	s := New()
	var seen float64
	s.At(7.5, func(now float64) { seen = s.Now() })
	s.Run(10)
	if seen != 7.5 {
		t.Fatalf("Now inside handler = %v", seen)
	}
}

func TestManyEvents(t *testing.T) {
	s := New()
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		s.At(float64(i%1000), func(float64) { count++ })
	}
	if got := s.Run(1000); got != n {
		t.Fatalf("executed %d", got)
	}
	if count != n {
		t.Fatalf("count %d", count)
	}
}

// TestHorizonBoundaryProperty: for a spread of horizons, every event
// with at <= horizon fires (inclusive boundary) and none beyond it.
func TestHorizonBoundaryProperty(t *testing.T) {
	for _, horizon := range []float64{0, 0.5, 1, 2.25, 3, 7, 10} {
		s := New()
		fired := make(map[float64]bool)
		times := []float64{0, 0.5, 1, 2.25, 3, 6.999, 7, 7.0001, 10}
		for _, at := range times {
			at := at
			s.At(at, func(float64) { fired[at] = true })
		}
		s.Run(horizon)
		for _, at := range times {
			want := at <= horizon
			if fired[at] != want {
				t.Fatalf("horizon %v: event at %v fired=%v want %v", horizon, at, fired[at], want)
			}
		}
		if s.Now() != horizon {
			t.Fatalf("horizon %v: clock %v", horizon, s.Now())
		}
	}
}

// TestStopClockAcrossRuns: Stop freezes the clock at the stopping
// event's time; a subsequent Run resumes from there and advances to
// its own horizon, keeping time contiguous and monotone.
func TestStopClockAcrossRuns(t *testing.T) {
	s := New()
	s.At(2, func(float64) { s.Stop() })
	s.At(5, func(float64) {})
	s.Run(10)
	if s.Now() != 2 {
		t.Fatalf("clock after Stop %v, want 2 (no advance to horizon)", s.Now())
	}
	// Resume: the event at 5 fires, then the clock advances to the new
	// horizon.
	if n := s.Run(8); n != 1 {
		t.Fatalf("resume executed %d, want 1", n)
	}
	if s.Now() != 8 {
		t.Fatalf("clock after resume %v, want 8", s.Now())
	}
	// Idle run on an empty calendar still advances time.
	s.Run(20)
	if s.Now() != 20 {
		t.Fatalf("clock after idle run %v, want 20", s.Now())
	}
	// Scheduling before the advanced clock is causality violation.
	if err := s.At(15, func(float64) {}); err == nil {
		t.Fatal("past scheduling accepted after clock advance")
	}
}

func TestNextAtLen(t *testing.T) {
	s := New()
	if _, ok := s.NextAt(); ok {
		t.Fatal("NextAt on empty calendar reported an event")
	}
	if s.Len() != 0 {
		t.Fatalf("Len %d", s.Len())
	}
	s.At(5, func(float64) {})
	s.At(3, func(float64) {})
	if at, ok := s.NextAt(); !ok || at != 3 {
		t.Fatalf("NextAt = %v,%v want 3,true", at, ok)
	}
	if s.Len() != 2 {
		t.Fatalf("Len %d, want 2", s.Len())
	}
	s.Run(3)
	if at, ok := s.NextAt(); !ok || at != 5 {
		t.Fatalf("NextAt after firing 3 = %v,%v want 5,true", at, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len after firing 3 = %d, want 1", s.Len())
	}
}

// TestEveryUntilStop: a periodic ticker built from self-rescheduling At
// calls, stopped by its owner after three ticks, fires no further tick;
// the tick already on the calendar drains without effect and the clock
// still reaches the horizon.
func TestEveryUntilStop(t *testing.T) {
	s := New()
	ticks := 0
	stopped := false
	var tick Handler
	tick = func(now float64) {
		if stopped {
			return
		}
		ticks++
		if err := s.At(now+1, tick); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.At(1, tick); err != nil {
		t.Fatal(err)
	}
	s.Run(3.5)
	if ticks != 3 || s.Len() != 1 {
		t.Fatalf("before stop: ticks %d, pending %d, want 3 and 1", ticks, s.Len())
	}
	stopped = true
	s.Run(10)
	if ticks != 3 {
		t.Fatalf("ticks after stop %d, want 3", ticks)
	}
	if s.Len() != 0 || s.Now() != 10 {
		t.Fatalf("after stop: pending %d, clock %v, want 0 and 10", s.Len(), s.Now())
	}
}

// TestPendingCount: Len counts events not yet fired, including those a
// handler schedules and those a Stop leaves behind.
func TestPendingCount(t *testing.T) {
	s := New()
	s.At(1, func(now float64) { s.At(now+5, func(float64) {}) })
	s.At(2, func(float64) { s.Stop() })
	s.At(3, func(float64) {})
	if s.Len() != 3 {
		t.Fatalf("pending %d, want 3", s.Len())
	}
	s.Run(10)
	// Fired 1 (which added 6) and 2 (which stopped); 3 and 6 remain.
	if s.Len() != 2 {
		t.Fatalf("pending after stop %d, want 2", s.Len())
	}
	s.Run(10)
	if s.Len() != 0 {
		t.Fatalf("pending after drain %d, want 0", s.Len())
	}
}
