// Package shard is the sharded discrete-event engine. The simulated
// cluster advances in lockstep, one control window at a time (PAPER
// §7.1), so the engine owns a single window clock: every period it
// runs each lane's window — a lane is a contiguous range of devices
// plus a mailbox, nothing else — then applies the cross-lane effects
// the lanes queued, then fires the control-plane one-shots on the
// global calendar, then the per-window tick. Lanes run their windows
// independently, optionally in parallel via the runner pool; the hot
// per-device path inside a lane never takes a lock, and every
// cross-lane interaction routes through the mailbox and lands at the
// barrier that closes the window.
//
// Determinism contract: provided lane windows touch only lane-local
// state and every cross-lane effect goes through Post, a run's
// observable behavior is bit-for-bit identical for any lane count and
// any worker count. Three properties deliver that, mirroring
// internal/runner's ordered-merge discipline:
//
//   - lanes partition devices contiguously (Split), so running lane
//     windows in index order visits devices in global device order —
//     and a parallel run touches disjoint state, making order moot;
//   - mailbox messages merge-sort by (At, Dev, per-lane emission seq),
//     a key that is invariant to lane count because each device is
//     owned by exactly one lane;
//   - with one worker the lane windows run inline in index order, so
//     the parallel engine at workers=1 is the sequential engine.
package shard

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"mudi/internal/eventq"
	"mudi/internal/runner"
)

// Default returns the default lane count for a device count:
// min(GOMAXPROCS, devices/64), at least 1. One lane per 64 devices
// keeps each lane's window big enough to amortize the barrier.
func Default(devices int) int {
	n := devices / 64
	if g := runtime.GOMAXPROCS(0); n > g {
		n = g
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Split partitions n devices into the given number of contiguous
// [start, end) ranges with sizes differing by at most one. The lane
// count is clamped to [1, n] (for n >= 1), so every lane owns at
// least one device.
func Split(n, lanes int) [][2]int {
	if lanes < 1 {
		lanes = 1
	}
	if lanes > n && n > 0 {
		lanes = n
	}
	out := make([][2]int, lanes)
	base, extra := n/lanes, n%lanes
	start := 0
	for i := range out {
		size := base
		if i < extra {
			size++
		}
		out[i] = [2]int{start, start + size}
		start += size
	}
	return out
}

// Message is one cross-lane effect: a closure applied at the first
// barrier at or after At. Ordering among messages at a barrier is
// (At, Dev, emission order within the posting lane) — invariant to
// lane and worker count because a device belongs to exactly one lane.
type Message struct {
	At  float64
	Dev int
	seq uint64
	Fn  eventq.Handler
}

// Lane is one shard: a contiguous range of devices plus a mailbox for
// effects that must cross into the global domain. A lane's window runs
// with every other lane's possibly in flight, so it must touch only
// state owned by this lane's devices; anything else goes through Post.
type Lane struct {
	start, end int
	mail       []Message
	seq        uint64
}

// Devices returns the lane's global device range [start, end).
func (l *Lane) Devices() (start, end int) { return l.start, l.end }

// Post queues fn for application at the barrier that closes the
// current window. at is the posting time and dev the global index of
// the device the effect concerns — together with the lane-local
// emission order they form the deterministic application key. Post is
// lock-free: each lane appends to its own buffer.
func (l *Lane) Post(at float64, dev int, fn eventq.Handler) {
	l.mail = append(l.mail, Message{At: at, Dev: dev, seq: l.seq, Fn: fn})
	l.seq++
}

// Profiler receives the engine's own wall-clock behavior, once per
// barrier: the lane-window, mailbox merge+sort, apply, and global
// (one-shot events plus the tick) phase durations, and the mail
// volume. Wall-clock is inherently nondeterministic — profilers must
// never feed back into simulation state.
type Profiler interface {
	Barrier(at float64, drain, merge, apply, global time.Duration, mail int)
}

// Engine coordinates the window clock, the lanes, and the global
// calendar of control-plane one-shots.
type Engine struct {
	global  *eventq.Sim
	lanes   []*Lane
	pool    *runner.Pool
	merged  []Message // barrier merge scratch, reused across barriers
	stopped bool

	// next is the next window time; windowRan marks that its lane
	// windows already ran, so a Run resumed after a Stop inside that
	// barrier finishes it without re-running them.
	next      float64
	windowRan bool

	// prof, when non-nil, observes every barrier; the unprofiled
	// engine pays one nil check per phase.
	prof Profiler
}

// New returns an engine over the given number of devices, split into
// lanes contiguous lanes (Split) and running at most workers lane
// windows concurrently (capped at the lane count). workers <= 1
// selects the inline sequential path (required whenever lane windows
// share any sink — observability, tracing, recording); lanes must be
// >= 1.
func New(devices, lanes, workers int) (*Engine, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("shard: lane count %d < 1", lanes)
	}
	split := Split(devices, lanes)
	workers = max(1, min(workers, len(split)))
	e := &Engine{global: eventq.New(), pool: runner.New(workers)}
	for _, r := range split {
		e.lanes = append(e.lanes, &Lane{start: r[0], end: r[1]})
	}
	return e, nil
}

// Global returns the control-plane calendar: one-shot events such as
// arrivals and faults that may touch cross-lane state.
func (e *Engine) Global() *eventq.Sim { return e.global }

// Now returns the engine clock: the time of the latest barrier.
func (e *Engine) Now() float64 { return e.global.Now() }

// SetProfiler installs (or, with nil, removes) the barrier profiler.
// Call it before Run.
func (e *Engine) SetProfiler(p Profiler) { e.prof = p }

// Stop halts Run after the current handler returns (from a mailbox
// message: after the barrier's mail has applied). The rest of the
// barrier — remaining global events, the tick — is left for the next
// Run. Call it only from a global event, the tick, or a mailbox
// message — stopping from inside a lane window would race a parallel
// run.
func (e *Engine) Stop() {
	e.stopped = true
	e.global.Stop()
}

// Run advances the engine until the horizon or Stop. Windows close at
// period, 2·period, … — each the previous plus period, the float
// sequence a self-rescheduling ticker produces. Each barrier is the
// earlier of the next window time and the next global event. At a
// window time t the phases run in a fixed order:
//
//  1. window(lane, t) for every lane (in parallel across lanes, in
//     index order with one worker);
//  2. mailbox messages, in (At, Dev, emission) order;
//  3. the global events at t, in their (time, seq) order;
//  4. tick(t).
//
// A barrier between window times (a global event) runs only phases 2
// and 3. Past the last barrier the clock advances to the horizon,
// applying any mail still queued. period must stay the same across
// resumed runs.
func (e *Engine) Run(horizon, period float64, window func(l *Lane, now float64), tick eventq.Handler) error {
	if !(period > 0) {
		return fmt.Errorf("shard: window period %v must be positive", period)
	}
	if e.next == 0 {
		e.next = period
	}
	e.stopped = false
	for !e.stopped {
		at, isWindow := e.next, true
		if t, ok := e.global.NextAt(); ok && t < at {
			at, isWindow = t, false
		}
		final := at > horizon
		if final {
			at, isWindow = horizon, false
		}
		e.barrier(at, isWindow, period, window, tick)
		if final {
			break
		}
	}
	return nil
}

// barrier runs one barrier's phases at time at (see Run).
func (e *Engine) barrier(at float64, isWindow bool, period float64, window func(*Lane, float64), tick eventq.Handler) {
	var t time.Time
	if e.prof != nil {
		t = time.Now()
	}
	if isWindow && !e.windowRan {
		// Lane windows return no error, so Map has none to report.
		_, _ = runner.Map(e.pool, len(e.lanes), func(i int) (struct{}, error) {
			window(e.lanes[i], at)
			return struct{}{}, nil
		})
		e.windowRan = true
	}
	drain := e.lap(&t)
	e.global.AdvanceTo(at)
	mail := e.mergeMail()
	merge := e.lap(&t)
	for i := range mail {
		mail[i].Fn(at)
		mail[i].Fn = nil
	}
	apply := e.lap(&t)
	if !e.stopped {
		e.global.Run(at)
		if isWindow && !e.stopped {
			tick(at)
			e.next += period
			e.windowRan = false
		}
	}
	if e.prof != nil {
		e.prof.Barrier(at, drain, merge, apply, e.lap(&t), len(mail))
	}
}

// lap returns the wall clock since *t and restarts it at now; it is
// zero, and reads no clock, when profiling is off.
func (e *Engine) lap(t *time.Time) time.Duration {
	if e.prof == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(*t)
	*t = now
	return d
}

// mergeMail moves every lane's queued messages into the merge scratch
// and sorts them by (At, Dev, emission). Messages posted while these
// apply (by a message's own Fn) land in the lane buffers again and
// wait for the next barrier.
func (e *Engine) mergeMail() []Message {
	e.merged = e.merged[:0]
	for _, l := range e.lanes {
		e.merged = append(e.merged, l.mail...)
		l.mail = l.mail[:0]
	}
	if len(e.merged) > 1 {
		sort.SliceStable(e.merged, func(i, j int) bool {
			a, b := e.merged[i], e.merged[j]
			if a.At != b.At {
				return a.At < b.At
			}
			if a.Dev != b.Dev {
				return a.Dev < b.Dev
			}
			return a.seq < b.seq
		})
	}
	return e.merged
}
