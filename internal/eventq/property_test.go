package eventq

import (
	"sort"
	"testing"
	"testing/quick"

	"mudi/internal/xrand"
)

// TestExecutionOrderProperty: for any random schedule, handlers fire
// in non-decreasing time order, FIFO among ties, and exactly the
// events within the horizon execute.
func TestExecutionOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		s := New()
		n := 1 + rng.Intn(200)
		horizon := rng.Range(10, 100)

		type planned struct {
			at  float64
			seq int
		}
		plan := make([]planned, n)
		var fired []int
		for i := 0; i < n; i++ {
			at := rng.Range(0, 120)
			plan[i] = planned{at: at, seq: i}
			i := i
			if err := s.At(at, func(now float64) {
				fired = append(fired, i)
			}); err != nil {
				return false
			}
		}
		s.Run(horizon)

		// Expected: all events with at ≤ horizon, ordered
		// by (time, insertion seq).
		var expect []int
		for i, p := range plan {
			if p.at <= horizon {
				expect = append(expect, i)
			}
		}
		sort.SliceStable(expect, func(a, b int) bool {
			pa, pb := plan[expect[a]], plan[expect[b]]
			if pa.at != pb.at {
				return pa.at < pb.at
			}
			return pa.seq < pb.seq
		})
		if len(fired) != len(expect) {
			return false
		}
		for i := range fired {
			if fired[i] != expect[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestClockMonotoneProperty: Now() observed inside handlers never goes
// backwards, even when handlers schedule more events.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		s := New()
		prev := -1.0
		ok := true
		var spawn Handler
		depth := 0
		spawn = func(now float64) {
			if now < prev {
				ok = false
			}
			prev = now
			if depth < 50 && rng.Float64() < 0.7 {
				depth++
				if err := s.At(now+rng.Range(0, 5), spawn); err != nil {
					ok = false
				}
			}
		}
		for i := 0; i < 10; i++ {
			if err := s.At(rng.Range(0, 20), spawn); err != nil {
				return false
			}
		}
		s.Run(1000)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
