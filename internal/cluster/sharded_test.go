package cluster

import (
	"math"
	"strings"
	"testing"

	"mudi/internal/faults"
	"mudi/internal/obs"
	"mudi/internal/perf"
	"mudi/internal/span"
	"mudi/internal/trace"
)

// shardRun builds a fresh policy (core.Mudi is stateful), applies
// mutate to the base options, and returns the run's Result.
func shardRun(t testing.TB, seed uint64, devices, tasks int, mutate func(*Options)) *Result {
	t.Helper()
	oracle := perf.NewOracle(seed)
	opts := Options{
		Policy:   buildMudi(t, oracle, seed),
		Oracle:   oracle,
		Seed:     seed,
		Devices:  devices,
		Arrivals: smallArrivals(t, tasks, seed),
	}
	if mutate != nil {
		mutate(&opts)
	}
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardCountInvariance is the engine's golden: Result.Summary() is
// byte-identical at every lane count, including the auto default (-1)
// and a lane count above the device count (clamped). Mirrors PR 1's parallel-vs-sequential suite.
func TestShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("six full simulations in -short")
	}
	want := shardRun(t, 3, 12, 24, func(o *Options) { o.Shards = 1 }).Summary()
	for _, shards := range []int{2, 3, 5, 12, 40, -1} {
		got := shardRun(t, 3, 12, 24, func(o *Options) { o.Shards = shards }).Summary()
		if got != want {
			t.Errorf("Shards=%d summary differs from Shards=1:\n--- shards=1\n%s\n--- shards=%d\n%s", shards, want, shards, got)
		}
	}
}

// TestShardFaultsInvariance: lane-count invariance must survive fault
// injection — outage windows, forced evictions, failovers, recovery
// redeployments all land at barriers.
func TestShardFaultsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("three faulted simulations in -short")
	}
	fc := &faults.Config{DeviceMTBFSec: 120, DeviceMTTRSec: 30, MeasureErrRate: 0.2, SpinUpFailRate: 0.3}
	run := func(shards int) *Result {
		return shardRun(t, 11, 8, 8, func(o *Options) {
			o.Faults = fc
			o.Shards = shards
		})
	}
	base := run(1)
	if base.DeviceFailures == 0 {
		t.Fatal("no device failures injected; the invariance check would be vacuous")
	}
	want := base.Summary()
	for _, shards := range []int{3, 8} {
		if got := run(shards).Summary(); got != want {
			t.Errorf("faulted run: Shards=%d summary differs from Shards=1", shards)
		}
	}
}

// TestShardClassesInvariance: class-aware runs shed at the admission
// door inside lane windows; the shed totals and per-class roll-ups
// must merge identically at any lane count.
func TestShardClassesInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("three classed simulations in -short")
	}
	run := func(shards int) *Result {
		return shardRun(t, 7, 6, 8, func(o *Options) {
			o.Services = classedServices()
			o.Bursts = []trace.Burst{{Start: 20, End: 80, Factor: 4}}
			o.Shards = shards
		})
	}
	base := run(1)
	if base.ShedWindows == 0 {
		t.Fatal("classed burst run shed nothing; the invariance check would be vacuous")
	}
	want := base.Summary()
	for _, shards := range []int{2, 6} {
		if got := run(shards).Summary(); got != want {
			t.Errorf("classed run: Shards=%d summary differs from Shards=1", shards)
		}
	}
}

// TestShardObservationPassive: observation, tracing, and attribution
// force the sequential lane drain — but must not change the summary
// relative to the parallel drain with every sink off.
func TestShardObservationPassive(t *testing.T) {
	if testing.Short() {
		t.Skip("two full simulations in -short")
	}
	want := shardRun(t, 5, 8, 12, func(o *Options) { o.Shards = 4 }).Summary()
	res := shardRun(t, 5, 8, 12, func(o *Options) {
		o.Shards = 4
		o.Obs = obs.NewSink()
		o.Trace = span.NewTracer(0)
		o.Attr = span.NewAttributor(0)
	})
	if got := res.Summary(); got != want {
		t.Errorf("observed run summary differs from unobserved:\n--- off\n%s\n--- on\n%s", want, got)
	}
	if len(res.Events) == 0 || len(res.Spans) == 0 || res.SLOReport == nil {
		t.Fatal("observed run produced no events/spans/report")
	}
}

// TestShardRecordReplay: a run's recorded workload replays to
// a byte-identical summary — and the replay is itself lane-count
// invariant.
func TestShardRecordReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("three full simulations in -short")
	}
	rec := trace.NewRecorder(9, 6, 1)
	recorded := shardRun(t, 9, 6, 8, func(o *Options) {
		o.Shards = 3
		o.Record = rec
	})
	if recorded.Workload == nil {
		t.Fatal("recording run produced no workload")
	}
	arrivals, err := recorded.Workload.Arrivals()
	if err != nil {
		t.Fatal(err)
	}
	replay := func(shards int) string {
		return shardRun(t, 9, 6, 8, func(o *Options) {
			o.Shards = shards
			o.Replay = recorded.Workload
			o.Arrivals = arrivals
		}).Summary()
	}
	want := recorded.Summary()
	if got := replay(3); got != want {
		t.Errorf("replay at Shards=3 differs from its recording:\n--- recorded\n%s\n--- replayed\n%s", want, got)
	}
	if got := replay(1); got != want {
		t.Errorf("replay at Shards=1 differs from the Shards=3 recording")
	}
}

// TestShardCompletes: basic liveness at a lane count that actually
// exercises parallel drains — every admitted task completes.
func TestShardCompletes(t *testing.T) {
	res := shardRun(t, 1, 12, 24, func(o *Options) { o.Shards = 4 })
	if res.Admitted == 0 || res.Completed != res.Admitted {
		t.Fatalf("completed %d of %d admitted", res.Completed, res.Admitted)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan %v", res.Makespan)
	}
}

// TestAdmitFactorDefaultPinsBurstFactor: the explicit AdmitFactor
// option, left at its default, must reproduce the historical behavior
// (admission cap = span.BurstFactor × nominal) byte for byte — the
// decoupling is an API change, not a behavior change.
func TestAdmitFactorDefaultPinsBurstFactor(t *testing.T) {
	run := func(mutate func(*Options)) *Result {
		return shardRun(t, 7, 6, 8, func(o *Options) {
			o.Services = classedServices()
			o.Bursts = []trace.Burst{{Start: 20, End: 80, Factor: 4}}
			if mutate != nil {
				mutate(o)
			}
		})
	}
	def := run(nil)
	if def.ShedWindows == 0 {
		t.Fatal("default classed burst run shed nothing; the pin would be vacuous")
	}
	explicit := run(func(o *Options) { o.AdmitFactor = span.BurstFactor })
	if def.Summary() != explicit.Summary() {
		t.Errorf("explicit AdmitFactor=span.BurstFactor differs from the default:\n--- default\n%s\n--- explicit\n%s",
			def.Summary(), explicit.Summary())
	}
	// A looser cap admits more of the burst: strictly less shedding.
	loose := run(func(o *Options) { o.AdmitFactor = 3 * span.BurstFactor })
	if loose.ShedWindows >= def.ShedWindows {
		t.Errorf("AdmitFactor=%v shed %d windows, want fewer than the default's %d — the option is not wired into admission",
			3*span.BurstFactor, loose.ShedWindows, def.ShedWindows)
	}
	if !strings.Contains(def.Summary(), "shed_windows=") {
		t.Fatal("classed summary missing shed_windows line")
	}
}

// TestAdmitFactorValidation: non-finite or non-positive factors are
// construction errors; zero selects the default.
func TestAdmitFactorValidation(t *testing.T) {
	oracle := perf.NewOracle(1)
	base := Options{
		Policy:   buildMudi(t, oracle, 1),
		Oracle:   oracle,
		Seed:     1,
		Devices:  2,
		Arrivals: smallArrivals(t, 2, 1),
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		opts := base
		opts.AdmitFactor = bad
		if _, err := New(opts); err == nil {
			t.Errorf("AdmitFactor=%v accepted", bad)
		}
	}
	opts := base
	opts.AdmitFactor = 0
	if _, err := New(opts); err != nil {
		t.Errorf("AdmitFactor=0 (default) rejected: %v", err)
	}
}
