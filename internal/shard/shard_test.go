package shard

import (
	"fmt"
	"math"
	"testing"

	"mudi/internal/eventq"
)

func TestSplit(t *testing.T) {
	cases := []struct {
		n, lanes int
		want     [][2]int
	}{
		{10, 1, [][2]int{{0, 10}}},
		{10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{4, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{3, 8, [][2]int{{0, 1}, {1, 2}, {2, 3}}}, // clamped to n
		{5, 0, [][2]int{{0, 5}}},                 // clamped to 1
	}
	for _, c := range cases {
		got := Split(c.n, c.lanes)
		if len(got) != len(c.want) {
			t.Fatalf("Split(%d,%d) = %v, want %v", c.n, c.lanes, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Split(%d,%d) = %v, want %v", c.n, c.lanes, got, c.want)
			}
		}
	}
}

func TestDefault(t *testing.T) {
	if got := Default(1); got != 1 {
		t.Fatalf("Default(1) = %d", got)
	}
	if got := Default(63); got != 1 {
		t.Fatalf("Default(63) = %d", got)
	}
	if got := Default(128); got < 1 || got > 2 {
		t.Fatalf("Default(128) = %d, want 1..2 (min(GOMAXPROCS, 2))", got)
	}
}

// buildToy wires a toy cluster onto an engine over n devices: each
// device's window bumps a lane-local counter and posts a mailbox
// message that appends to the shared log; the global calendar holds
// two "arrival" one-shots that also append, and the tick logs the
// barrier. The returned run function drives the engine with period 1.
// The log is the observable whose byte-identity across lane/worker
// counts is the engine's whole contract.
func buildToy(t *testing.T, n, lanes, workers int) (run func(horizon float64), log *[]string) {
	t.Helper()
	e, err := New(n, lanes, workers)
	if err != nil {
		t.Fatal(err)
	}
	log = &[]string{}
	counters := make([]int, n)
	window := func(l *Lane, now float64) {
		start, end := l.Devices()
		for d := start; d < end; d++ {
			d := d
			counters[d]++ // lane-local state: safe under parallel windows
			v := counters[d]
			l.Post(now, d, func(at float64) {
				*log = append(*log, fmt.Sprintf("tick d%d c%d @%g", d, v, at))
			})
		}
	}
	tick := func(now float64) { *log = append(*log, fmt.Sprintf("barrier @%g", now)) }
	for _, at := range []float64{1.5, 3} {
		if err := e.Global().At(at, func(now float64) {
			*log = append(*log, fmt.Sprintf("arrival @%g", now))
		}); err != nil {
			t.Fatal(err)
		}
	}
	return func(horizon float64) {
		if err := e.Run(horizon, 1, window, tick); err != nil {
			t.Fatal(err)
		}
	}, log
}

// TestLaneCountInvariance is the engine-level determinism golden: the
// same toy workload produces a byte-identical log at every lane and
// worker count.
func TestLaneCountInvariance(t *testing.T) {
	const n, horizon = 8, 5.0
	run := func(lanes, workers int) []string {
		r, log := buildToy(t, n, lanes, workers)
		r(horizon)
		return *log
	}
	want := run(1, 1)
	if len(want) == 0 {
		t.Fatal("toy run produced no log")
	}
	for _, c := range []struct{ lanes, workers int }{{2, 1}, {4, 1}, {4, 4}, {8, 3}} {
		got := run(c.lanes, c.workers)
		if len(got) != len(want) {
			t.Fatalf("lanes=%d workers=%d: %d entries, want %d\n%v", c.lanes, c.workers, len(got), len(want), got)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("lanes=%d workers=%d entry %d: %q, want %q", c.lanes, c.workers, i, got[i], want[i])
			}
		}
	}
}

// noTick is a tick callback for tests that do not observe it.
func noTick(float64) {}

// TestMailboxOrdering: messages at one barrier apply in (At, Dev,
// emission) order regardless of which lane posted them or in what
// order.
func TestMailboxOrdering(t *testing.T) {
	e, err := New(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	window := func(l *Lane, now float64) {
		post := func(at float64, dev int, tag string) {
			l.Post(at, dev, func(float64) { got = append(got, tag) })
		}
		if start, _ := l.Devices(); start == 0 {
			post(now, 1, "d1#0") // higher device posted first: Dev wins
			post(now, 0, "d0#0")
			post(now, 0, "d0#1") // same dev: emission order
			return
		}
		post(now, 3, "d3#0")
		post(now, 2, "d2#0")
		post(0.5, 2, "d2@earlier") // earlier At sorts first
	}
	if err := e.Run(1, 1, window, noTick); err != nil {
		t.Fatal(err)
	}
	want := []string{"d2@earlier", "d0#0", "d0#1", "d1#0", "d2#0", "d3#0"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("applied %v, want %v", got, want)
	}
}

// TestBarrierPhaseOrder: at a window time that also has a global
// event, the lane window runs first, then the mail it posted, then the
// global event, then the tick. At a barrier between windows (a global
// event at 5.5) no lane work and no tick runs — only mail (here, mail
// posted by mail at 5) and the global event.
func TestBarrierPhaseOrder(t *testing.T) {
	e, err := New(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	window := func(l *Lane, now float64) {
		got = append(got, fmt.Sprintf("lane@%g", now))
		if now != 5 {
			return
		}
		l.Post(now, 0, func(at float64) {
			got = append(got, fmt.Sprintf("mail@%g", at))
			l.Post(at, 0, func(at float64) { got = append(got, fmt.Sprintf("mail@%g", at)) })
		})
	}
	tick := func(now float64) { got = append(got, fmt.Sprintf("tick@%g", now)) }
	for _, at := range []float64{5, 5.5} {
		if err := e.Global().At(at, func(now float64) { got = append(got, fmt.Sprintf("global@%g", now)) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(5.5, 5, window, tick); err != nil {
		t.Fatal(err)
	}
	want := []string{"lane@5", "mail@5", "global@5", "tick@5", "mail@5.5", "global@5.5"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("phase order %v, want %v", got, want)
	}
}

// TestWindowTimesRepeatedAddition: window times are the running sum
// period, period+period, … — the float sequence of a self-rescheduling
// ticker on an eventq calendar — so a horizon cuts the run at exactly
// the same window. 0.1 summed 1000 times falls just short of 100, so
// the 1000th window fires under horizon 100 and the 1001st does not.
func TestWindowTimesRepeatedAddition(t *testing.T) {
	const period, horizon = 0.1, 100.0
	var want []float64
	ref := eventq.New()
	var tickRef eventq.Handler
	tickRef = func(now float64) {
		want = append(want, now)
		if err := ref.At(now+period, tickRef); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.At(period, tickRef); err != nil {
		t.Fatal(err)
	}
	ref.Run(horizon)
	if len(want) != 1000 {
		t.Fatalf("reference ticker fired %d times, want 1000", len(want))
	}
	sum := 0.0
	for i, w := range want {
		sum += period
		if w != sum {
			t.Fatalf("reference window %d at %v, want running sum %v", i, w, sum)
		}
	}

	e, err := New(3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var windows, ticks []float64
	window := func(l *Lane, now float64) {
		if start, _ := l.Devices(); start == 0 {
			windows = append(windows, now)
		}
	}
	if err := e.Run(horizon, period, window, func(now float64) { ticks = append(ticks, now) }); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]float64{"window": windows, "tick": ticks} {
		if len(got) != len(want) {
			t.Fatalf("%d %s calls, want %d", len(got), name, len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s %d at %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	if e.Now() != horizon {
		t.Fatalf("clock %v, want horizon %v", e.Now(), horizon)
	}
}

// TestStopAndResume: Stop from a global event halts the run at that
// barrier with the clock aligned, after that window's lane work but
// before its tick; a further Run finishes the barrier (the tick) and
// resumes the window clock. Stop from the tick halts after it.
func TestStopAndResume(t *testing.T) {
	e, err := New(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	windows := 0
	var ticks []float64
	window := func(*Lane, float64) { windows++ }
	tick := func(now float64) {
		ticks = append(ticks, now)
		if now == 4 {
			e.Stop()
		}
	}
	run := func(horizon float64) {
		if err := e.Run(horizon, 1, window, tick); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Global().At(3, func(float64) { e.Stop() }); err != nil {
		t.Fatal(err)
	}
	run(10)
	if windows != 6 { // 2 lanes × windows at 1, 2, 3
		t.Fatalf("windows at stop %d, want 6", windows)
	}
	if fmt.Sprint(ticks) != "[1 2]" {
		t.Fatalf("ticks at stop %v, want [1 2]", ticks)
	}
	if e.Now() != 3 {
		t.Fatalf("clock %v, want 3", e.Now())
	}
	run(10) // the tick at 3, the window at 4, then the tick's Stop
	if windows != 8 || fmt.Sprint(ticks) != "[1 2 3 4]" {
		t.Fatalf("after first resume: windows %d, ticks %v; want 8, [1 2 3 4]", windows, ticks)
	}
	if e.Now() != 4 {
		t.Fatalf("clock %v, want 4", e.Now())
	}
	run(6)
	if windows != 12 || fmt.Sprint(ticks) != "[1 2 3 4 5 6]" {
		t.Fatalf("after second resume: windows %d, ticks %v; want 12, [1 2 3 4 5 6]", windows, ticks)
	}
	if e.Now() != 6 {
		t.Fatalf("clock %v, want 6", e.Now())
	}
}

// TestClocksAligned: after a horizon run the clock sits exactly at the
// horizon, even when the horizon falls between windows and the global
// calendar drained early.
func TestClocksAligned(t *testing.T) {
	e, err := New(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Global().At(1, func(float64) {}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(7, 2, func(*Lane, float64) {}, noTick); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 7 {
		t.Fatalf("clock %v, want 7", e.Now())
	}
}

// TestMailFromMail: a message whose Fn posts another message sees that
// second message applied at the next barrier, not recursively.
func TestMailFromMail(t *testing.T) {
	e, err := New(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	window := func(l *Lane, now float64) {
		if now != 1 {
			return
		}
		l.Post(now, 0, func(at float64) {
			got = append(got, fmt.Sprintf("first@%g", at))
			l.Post(at, 0, func(at2 float64) {
				got = append(got, fmt.Sprintf("second@%g", at2))
			})
		})
	}
	if err := e.Run(3, 1, window, noTick); err != nil {
		t.Fatal(err)
	}
	want := []string{"first@1", "second@2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("applied %v, want %v", got, want)
	}
}

// TestRunRejectsBadPeriod: a window period that is not positive (NaN
// included) is an error, not a spin.
func TestRunRejectsBadPeriod(t *testing.T) {
	e, err := New(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0, -1, math.NaN()} {
		if err := e.Run(10, p, func(*Lane, float64) {}, noTick); err == nil {
			t.Fatalf("period %v accepted", p)
		}
	}
}
