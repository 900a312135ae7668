package main

import (
	"time"

	"mudi"
	"mudi/internal/core"
	"mudi/internal/model"
)

// The traced run measures the layers from outside the program: it
// wraps the policy handed to SimOptions.Policy, and every measurer that
// policy receives, in timing and counting decorators. The untraced runs
// pass the bare policy, so the decorators cost nothing there.

// layerStats accumulates the per-layer counters of one traced
// simulation. The simulator calls the policy from its serialized
// global phase only, so no field needs synchronization.
type layerStats struct {
	selectCalls   int
	devicesScored int
	selectQueued  int
	selectBusy    time.Duration
	selectLat     []float64 // per-call SelectDevice time, ms

	observeCalls int
	novelColocs  int
	observeBusy  time.Duration

	configureCalls int
	configureBusy  time.Duration
	boIters        int
	infeasible     int
	configureErrs  int

	measureCalls int
	measureBusy  time.Duration
	measureErrs  int
}

// tracedPolicy decorates a core.Policy. It forwards core.OnlineLearner
// and the evaluation-hook interface when the wrapped policy has them:
// without the forwarding the simulator would see a policy that does not
// learn online, and the traced run would be a different program.
type tracedPolicy struct {
	inner core.Policy
	st    *layerStats
}

// evalHooker mirrors the simulator's optional policy interface for the
// tuner's per-evaluation hook (core.Mudi implements it).
type evalHooker interface {
	SetEvalHook(func(batch int, delta, trainIterMs float64, feasible bool))
}

var (
	_ core.Policy        = (*tracedPolicy)(nil)
	_ core.OnlineLearner = (*tracedPolicy)(nil)
	_ evalHooker         = (*tracedPolicy)(nil)
)

func newTracedPolicy(inner mudi.Policy, st *layerStats) *tracedPolicy {
	return &tracedPolicy{inner: inner, st: st}
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) SelectDevice(task model.TrainingTask, views []core.DeviceView, measurers map[string]core.Measurer) (string, bool) {
	start := time.Now()
	id, ok := p.inner.SelectDevice(task, views, measurers)
	d := time.Since(start)
	p.st.selectCalls++
	p.st.devicesScored += len(views)
	p.st.selectBusy += d
	p.st.selectLat = append(p.st.selectLat, float64(d)/float64(time.Millisecond))
	if !ok {
		p.st.selectQueued++
	}
	return id, ok
}

func (p *tracedPolicy) Configure(view core.DeviceView, m core.Measurer) (core.Decision, error) {
	start := time.Now()
	dec, err := p.inner.Configure(view, p.wrap(m, nil))
	p.st.configureBusy += time.Since(start)
	p.st.configureCalls++
	switch {
	case err != nil:
		p.st.configureErrs++
	case !dec.Feasible:
		p.st.infeasible++
	}
	p.st.boIters += dec.BOIterations
	return dec, err
}

// ObserveColocation forwards online learning. A call counts as novel
// when it issued at least one measurement probe.
func (p *tracedPolicy) ObserveColocation(view core.DeviceView, m core.Measurer) {
	learner, ok := p.inner.(core.OnlineLearner)
	if !ok {
		return
	}
	probes := 0
	start := time.Now()
	learner.ObserveColocation(view, p.wrap(m, &probes))
	p.st.observeBusy += time.Since(start)
	p.st.observeCalls++
	if probes > 0 {
		p.st.novelColocs++
	}
}

func (p *tracedPolicy) SetEvalHook(fn func(batch int, delta, trainIterMs float64, feasible bool)) {
	if h, ok := p.inner.(evalHooker); ok {
		h.SetEvalHook(fn)
	}
}

// wrap decorates m, keeping a nil measurer nil (policies branch on it).
// probes, when non-nil, also counts the calls made through it.
func (p *tracedPolicy) wrap(m core.Measurer, probes *int) core.Measurer {
	if m == nil {
		return nil
	}
	return &tracedMeasurer{inner: m, st: p.st, probes: probes}
}

// tracedMeasurer times every oracle probe reached through a Measurer.
type tracedMeasurer struct {
	inner  core.Measurer
	st     *layerStats
	probes *int
}

func (m *tracedMeasurer) TrainIterMs(batch int, delta float64) (float64, error) {
	start := time.Now()
	v, err := m.inner.TrainIterMs(batch, delta)
	m.done(start, err)
	return v, err
}

func (m *tracedMeasurer) InfLatencyMs(batch int, delta float64) (float64, error) {
	start := time.Now()
	v, err := m.inner.InfLatencyMs(batch, delta)
	m.done(start, err)
	return v, err
}

func (m *tracedMeasurer) done(start time.Time, err error) {
	m.st.measureBusy += time.Since(start)
	m.st.measureCalls++
	if err != nil {
		m.st.measureErrs++
	}
	if m.probes != nil {
		*m.probes++
	}
}
