package main

import (
	"io"
	"math"
	"testing"

	"mudi"
	"mudi/internal/core"
	"mudi/internal/model"
	"mudi/internal/timeline"
)

// fakePolicy records which optional interfaces the decorator forwards.
type fakePolicy struct {
	observed int
	hooked   bool
}

func (f *fakePolicy) Name() string { return "fake" }
func (f *fakePolicy) SelectDevice(model.TrainingTask, []core.DeviceView, map[string]core.Measurer) (string, bool) {
	return "", false
}
func (f *fakePolicy) Configure(core.DeviceView, core.Measurer) (core.Decision, error) {
	return core.Decision{Feasible: true}, nil
}
func (f *fakePolicy) ObserveColocation(_ core.DeviceView, m core.Measurer) {
	f.observed++
	if m != nil {
		_, _ = m.InfLatencyMs(16, 0.5)
	}
}
func (f *fakePolicy) SetEvalHook(fn func(int, float64, float64, bool)) { f.hooked = fn != nil }

type fakeMeasurer struct{}

func (fakeMeasurer) TrainIterMs(int, float64) (float64, error)  { return 1, nil }
func (fakeMeasurer) InfLatencyMs(int, float64) (float64, error) { return 1, nil }

func TestTracedPolicyForwards(t *testing.T) {
	inner := &fakePolicy{}
	st := &layerStats{}
	var p core.Policy = newTracedPolicy(inner, st)

	learner, ok := p.(core.OnlineLearner)
	if !ok {
		t.Fatal("traced policy does not implement core.OnlineLearner")
	}
	learner.ObserveColocation(core.DeviceView{}, fakeMeasurer{})
	learner.ObserveColocation(core.DeviceView{}, nil)
	if inner.observed != 2 {
		t.Fatalf("ObserveColocation forwarded %d times, want 2", inner.observed)
	}
	if st.observeCalls != 2 || st.novelColocs != 1 || st.measureCalls != 1 {
		t.Fatalf("observe accounting = %d calls, %d novel, %d probes; want 2, 1, 1",
			st.observeCalls, st.novelColocs, st.measureCalls)
	}

	hooker, ok := p.(evalHooker)
	if !ok {
		t.Fatal("traced policy does not forward SetEvalHook")
	}
	hooker.SetEvalHook(func(int, float64, float64, bool) {})
	if !inner.hooked {
		t.Fatal("SetEvalHook was not forwarded")
	}
}

func TestTracedMudiKeepsInterfaces(t *testing.T) {
	sys, err := mudi.NewSystem(mudi.SystemConfig{Seed: systemSeed})
	if err != nil {
		t.Fatal(err)
	}
	var p core.Policy = newTracedPolicy(sys.Policy(), &layerStats{})
	if _, ok := sys.Policy().(core.OnlineLearner); !ok {
		t.Fatal("the Mudi policy no longer implements core.OnlineLearner")
	}
	if _, ok := sys.Policy().(evalHooker); !ok {
		t.Fatal("the Mudi policy no longer implements SetEvalHook")
	}
	if _, ok := p.(core.OnlineLearner); !ok {
		t.Fatal("wrapped Mudi policy lost core.OnlineLearner")
	}
	if _, ok := p.(evalHooker); !ok {
		t.Fatal("wrapped Mudi policy lost SetEvalHook")
	}
}

// TestTracedSummaryIdentical runs small versions of the legacy and
// sharded workloads traced and untraced: the Summary must not move, and
// the decorators must have seen every layer.
func TestTracedSummaryIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four simulations")
	}
	for _, w := range []workload{
		{name: "legacy", devices: 12, tasks: 12, gapSec: 4, iterScale: 0.001},
		{name: "sharded", devices: 128, tasks: 12, gapSec: 0.1, iterScale: 0.001, shards: -1, observed: true},
	} {
		t.Run(w.name, func(t *testing.T) {
			arr, err := w.arrivals(3, 0)
			if err != nil {
				t.Fatal(err)
			}
			b := newBench(w, [][]mudi.TaskArrival{arr}, io.Discard, 0)
			plain, err := b.simulate(w, arr, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := b.simulate(w, arr, true)
			if err != nil {
				t.Fatal(err)
			}
			if plain.hash != traced.hash {
				t.Fatalf("traced Summary sha256 %s != untraced %s", traced.hash, plain.hash)
			}
			ls := traced.layers
			if ls.selectCalls == 0 || ls.observeCalls == 0 || ls.novelColocs == 0 ||
				ls.configureCalls == 0 || ls.measureCalls == 0 {
				t.Fatalf("a layer saw no work: %+v", *ls)
			}
			if e := engineOf(traced); e.windowMs <= 0 {
				t.Fatalf("no engine self-profile in the traced run: %+v", e)
			}
		})
	}
}

func TestSeriesTotal(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 200, 1000} {
		st := timeline.New(timeline.Config{Cap: 16, Levels: 3, Fanout: 8})
		sr := st.Series(timeline.EngineDrainMs, "")
		want := 0.0
		for i := 0; i < n; i++ {
			v := float64(i%13) + 0.5
			sr.Add(float64(i), v)
			want += v
		}
		var got float64
		var count int64
		for _, tl := range st.Snapshot(true) {
			got, count = seriesTotal(tl)
		}
		if count != int64(n) || math.Abs(got-want) > 1e-9 {
			t.Errorf("n=%d: total %v over %d samples, want %v over %d", n, got, count, want, n)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if p, _ := tail(xs); p != 99 {
		t.Errorf("1000 samples: tail percentile %v, want 99 (10 samples beyond it)", p)
	}
	if p, _ := tail(xs[:50]); p != 75 {
		t.Errorf("50 samples: tail percentile %v, want 75", p)
	}
}
