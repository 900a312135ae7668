package core

import (
	"fmt"
	"math"
	"testing"

	"mudi/internal/model"
	"mudi/internal/opt"
	"mudi/internal/perf"
	"mudi/internal/sched"
	"mudi/internal/xrand"
)

// mixedFleet is every service with no resident, with each task of a
// small set, and with each task at a second QPS, plus a device with no
// load and one whose service the predictor has never seen. Many
// devices share a (service, Ψ) key, which is what the memo exploits.
func mixedFleet() []DeviceView {
	var views []DeviceView
	add := func(v DeviceView) {
		v.ID = fmt.Sprintf("g%d", len(views))
		views = append(views, v)
	}
	for _, svc := range model.Services() {
		add(viewFor(svc.Name))
		for _, name := range []string{"NCF", "YOLOv5", "ResNet18"} {
			task, _ := model.TaskByName(name)
			add(viewFor(svc.Name, task))
			busy := viewFor(svc.Name, task)
			busy.QPS *= 1.7
			add(busy)
		}
		idle := viewFor(svc.Name)
		idle.QPS = 0
		add(idle)
	}
	add(viewFor("no-such-service"))
	return views
}

// scores runs a selection so the plugin holds views and the candidate,
// then returns the slope plugin's score for every device.
func scores(m *Mudi, task model.TrainingTask, views []DeviceView) []float64 {
	m.SelectDevice(task, views, nil)
	out := make([]float64, len(views))
	for i, v := range views {
		out[i] = m.slope.Score(nil, sched.DeviceInfo{ID: v.ID})
	}
	return out
}

// uncachedScore is the §5.2 score computed straight from the
// predictor, with no memo.
func uncachedScore(m *Mudi, task model.TrainingTask, view DeviceView) float64 {
	arch := colocArch(view.ResidentTasks, task)
	slope, err := m.pred.AvgSlope(view.ServiceName, arch)
	if err != nil {
		return -1
	}
	var shareSum float64
	batches := model.BatchSizes()
	for _, b := range batches {
		curve, err := m.pred.PredictCurve(view.ServiceName, b, arch)
		if err != nil || view.QPS <= 0 || view.SLOms <= 0 {
			continue
		}
		res, err := opt.MinPartition(opt.ScaleRequest{
			QPS: view.QPS, Batch: b, SLO: view.SLOms, Latency: curve, MaxDelta: 0.9,
		})
		if err != nil || !res.Feasible {
			continue
		}
		shareSum += 1 - res.Delta
	}
	return (0.05 + shareSum/float64(len(batches))) / (1 + slope)
}

func TestScoreMemoMatchesUncached(t *testing.T) {
	oracle := perf.NewOracle(11)
	m := buildMudi(t, oracle, 11, 3)
	views := mixedFleet()
	task, _ := model.TaskByName("LSTM")
	cold := scores(m, task, views)
	warm := scores(m, task, views) // every key is now a memo hit
	if got, n := len(m.slope.memo), len(views); got >= n {
		t.Fatalf("memo has %d entries for %d devices; keys are not shared", got, n)
	}
	for i, v := range views {
		want := uncachedScore(m, task, v)
		if math.Float64bits(cold[i]) != math.Float64bits(want) || math.Float64bits(warm[i]) != math.Float64bits(want) {
			t.Fatalf("%s (%s, %d resident): memo scores %v/%v, uncached %v",
				v.ID, v.ServiceName, len(v.ResidentTasks), cold[i], warm[i], want)
		}
	}
	if last := cold[len(cold)-1]; last != -1 {
		t.Fatalf("untrained service scored %v, want -1", last)
	}
}

func TestSelectDeviceAfterOnlineUpdate(t *testing.T) {
	// Stale-memo regression: once ObserveColocation feeds the predictor
	// a novel co-location, placement must see the refitted learners, as
	// a policy with a cold memo over the same predictor does.
	oracle := perf.NewOracle(12)
	m := buildMudi(t, oracle, 12, 3)
	views := mixedFleet()
	task, _ := model.TaskByName("SqueezeNet")
	before := scores(m, task, views)

	novel, _ := model.TaskByName("AD-GCL")
	obs := viewFor("RoBERTa", novel)
	version := m.pred.Version()
	m.ObserveColocation(obs, &oracleMeasurer{oracle: oracle, view: obs, rng: xrand.New(120)})
	if m.pred.Version() == version {
		t.Fatal("online update did not move the predictor version")
	}

	after := scores(m, task, views)
	fresh := NewMudi(m.pred, m.cfg)
	want := scores(fresh, task, views)
	moved := false
	for i, v := range views {
		if math.Float64bits(after[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s (%s): score %v after the update, cold memo %v", v.ID, v.ServiceName, after[i], want[i])
		}
		moved = moved || after[i] != before[i]
	}
	if !moved {
		t.Fatal("the update changed no score; the test exercises nothing")
	}
	got, ok := m.SelectDevice(task, views, nil)
	wantDev, wantOK := fresh.SelectDevice(task, views, nil)
	if got != wantDev || ok != wantOK {
		t.Fatalf("selected %q/%v after the update, cold memo selects %q/%v", got, ok, wantDev, wantOK)
	}
}
