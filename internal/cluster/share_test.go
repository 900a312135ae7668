package cluster

import (
	"testing"

	"mudi/internal/core"
	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/trace"
)

// scriptedPolicy answers every Configure with the decision the test set
// last; the test places tasks itself, so SelectDevice never places.
type scriptedPolicy struct{ next core.Decision }

func (p *scriptedPolicy) Name() string { return "scripted" }

func (p *scriptedPolicy) SelectDevice(model.TrainingTask, []core.DeviceView, map[string]core.Measurer) (string, bool) {
	return "", false
}

func (p *scriptedPolicy) Configure(core.DeviceView, core.Measurer) (core.Decision, error) {
	return p.next, nil
}

// checkShare asserts the share invariant apply() enforces on the
// inference service: Δ stays in (0, 1], leaves training at least 10%
// while any unfinished, unpaused resident runs, and is the whole device
// after an infeasible decision (no injector, so no shadow spin-up can
// fail).
func checkShare(t *testing.T, step string, d *deviceState, afterInfeasible bool) {
	t.Helper()
	delta := d.svc.delta
	if delta <= 0 || delta > 1 {
		t.Fatalf("%s: delta %v outside (0,1]", step, delta)
	}
	for _, tk := range d.training {
		if !tk.done && !tk.paused && delta > 0.9 {
			t.Fatalf("%s: delta %v > 0.9 with active resident %d", step, delta, tk.id)
		}
	}
	if afterInfeasible && delta != 1 {
		t.Fatalf("%s: delta %v after an infeasible decision, want 1", step, delta)
	}
}

func TestApplyShareInvariant(t *testing.T) {
	task, ok := model.TaskByName("LSTM")
	if !ok {
		t.Fatal("LSTM not in catalog")
	}
	arrival := trace.TaskArrival{ID: 1, Task: task, Iters: 100}
	policy := &scriptedPolicy{}
	sim, err := New(Options{
		Policy:   policy,
		Oracle:   perf.NewOracle(1),
		Seed:     1,
		Devices:  1,
		Arrivals: []trace.TaskArrival{arrival},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := sim.devices[0]

	// Placement: the policy asks for the whole device while a task is
	// resident; apply caps it at 0.9.
	policy.next = core.Decision{Feasible: true, Batch: 64, Delta: 1}
	sim.place(0, d, &queueJob{arrival: arrival})
	if len(d.training) != 1 || d.training[0].paused {
		t.Fatal("placement did not leave one running resident")
	}
	checkShare(t, "placement", d, false)
	if d.svc.delta != 0.9 {
		t.Fatalf("placement: delta %v, want the 0.9 cap", d.svc.delta)
	}

	// Infeasible retune: training pauses and the service takes the
	// device, still resizing to the decided batch.
	policy.next = core.Decision{Feasible: false, Batch: 32}
	if err := sim.configure(1, d, false, "test"); err != nil {
		t.Fatal(err)
	}
	if !d.training[0].paused || d.svc.batch != 32 {
		t.Fatalf("infeasible retune: paused=%v batch=%d, want true/32", d.training[0].paused, d.svc.batch)
	}
	checkShare(t, "infeasible retune", d, true)

	// Feasible retune: the resident resumes under the cap again.
	policy.next = core.Decision{Feasible: true, Batch: 64, Delta: 0.95}
	if err := sim.configure(2, d, false, "test"); err != nil {
		t.Fatal(err)
	}
	if d.training[0].paused {
		t.Fatal("feasible retune left the resident paused")
	}
	checkShare(t, "feasible retune", d, false)

	// Completion: with no residents left the service may take the
	// whole device.
	policy.next = core.Decision{Feasible: true, Batch: 64, Delta: 1}
	tk := d.training[0]
	tk.done, tk.finishAt = true, 3
	sim.complete(3, d, tk)
	if len(d.training) != 0 {
		t.Fatalf("completion left %d residents", len(d.training))
	}
	checkShare(t, "completion", d, false)
	if d.svc.delta != 1 {
		t.Fatalf("completion: delta %v, want 1", d.svc.delta)
	}
}
