// Package cluster is the co-simulation engine: it replays a training
// arrival trace against a simulated GPU fleet hosting the Tab. 1
// inference services, drives the configured multiplexing policy (Mudi
// or a baseline) through placement, tuning, QPS monitoring, and memory
// management, and extracts the metrics behind the paper's end-to-end
// figures (Figs. 8–10, 13–18, Tab. 4).
//
// The simulation advances in control windows (1 s by default), exactly
// like the paper's own 1000-GPU simulator: fitted/true performance
// functions generate feedback at runtime (§7.1, "Simulated cluster").
package cluster

import (
	"fmt"

	"mudi/internal/core"
	"mudi/internal/memmgr"
	"mudi/internal/model"
	"mudi/internal/obs"
	"mudi/internal/perf"
	"mudi/internal/sched"
	"mudi/internal/span"
	"mudi/internal/trace"
	"mudi/internal/xrand"
)

// serviceState is the per-device inference service instance.
type serviceState struct {
	info      model.InferenceService
	qpsTrace  trace.QPSTrace
	curQPS    float64 // QPS at the last (re)tune
	batch     int
	delta     float64
	violWin   int // windows with a P99 over budget
	totalWin  int
	reconfigs int // shadow-instance restarts
	// deployed is true while a live instance is serving on the device.
	// It gates shadow-spin-up fault injection: the initial deployment
	// and post-failure redeployments are fresh launches, not shadow
	// swaps, so only rescales of a deployed instance can lose their
	// shadow to an injected spin-up failure.
	deployed bool

	// Per-device accumulators: lane windows accumulate here, finalize
	// merges in global device order so float sums are invariant to lane
	// count.
	latSum   float64 // measured window latencies, summed
	shedReq  float64 // requests shed by admission control
	shedWins int     // device-windows that shed
}

// taskState is one admitted training task.
type taskState struct {
	id        int
	task      model.TrainingTask
	iters     int
	itersDone float64
	submitAt  float64
	startAt   float64
	finishAt  float64
	deviceID  string
	paused    bool
	pausedAt  float64
	done      bool
	allocID   string
}

// deviceState couples the device's inference service (batch and GPU
// share Δ), its memory pool, and its training residents.
type deviceState struct {
	id            string
	pool          *memmgr.Pool
	svc           *serviceState
	training      []*taskState
	smUtil        float64 // last window's SM utilization
	lastResumeTry float64
	// down marks an injected device failure window: the device takes no
	// placements, serves no inference, and contributes zero utilization
	// until the matching recovery event clears it.
	down bool
	// outageSpan is the open fault-outage span started by failDevice and
	// closed by recoverDevice; zero when tracing is off or no outage is
	// in flight.
	outageSpan span.ID
	// obsv caches this device's observability instruments (nil when
	// observation is disabled) so the hot path never takes the
	// registry lock.
	obsv *devObs
	// taskScratch backs residentScratch/activeScratch: resident lists
	// consumed within a single call (oracle measurements) reuse it, while
	// view() keeps allocating because policies retain its slices.
	taskScratch []model.TrainingTask

	// Lane fields. gidx is the global device index (lanes are ranges of
	// it); winRNG is the per-device measurement-noise stream (a shared
	// cluster stream would couple devices across lanes); memFrac is the
	// last window's memory utilization, published for the barrier's
	// device-order cluster sums.
	gidx    int
	winRNG  *xrand.Rand
	memFrac float64

	// Timeline per-window scratch (Options.Timeline runs only; idle
	// otherwise). svcIdx is the catalog index of the resident service.
	// The win* fields hold this device's last window: offered QPS, shed
	// rate, measured latency, whether the measurement succeeded, and
	// whether it violated the budget. Written lane-locally by the window
	// handler, folded into timeline series by the single-threaded
	// barrier roll-up in global device order.
	svcIdx  int
	winQPS  float64
	winShed float64
	winLat  float64
	winOK   bool
	winViol bool
}

// devObs is the per-device instrument cache, resolved once at
// simulation construction.
type devObs struct {
	latency    *obs.Histogram // measured window latency (ms)
	violations *obs.Counter
	batch      *obs.Gauge
	delta      *obs.Gauge
	// cls points at the shared class-labelled counter set for the
	// resident service's SLO class; nil for unclassed services and
	// classless runs, so every increment site is one nil check.
	cls *classCounters
}

func newDevObs(sink *obs.Sink, device, service string) *devObs {
	return &devObs{
		latency:    sink.Histogram(obs.Labeled("inf_latency_ms", device, service), nil),
		violations: sink.Counter(obs.Labeled("slo_violated_windows_total", device, service)),
		batch:      sink.Gauge(obs.Labeled("inf_batch", device, service)),
		delta:      sink.Gauge(obs.Labeled("inf_gpu_share", device, service)),
	}
}

// trainShare is the per-task share under the current inference delta.
func (d *deviceState) trainShare() float64 {
	n := 0
	for _, t := range d.training {
		if !t.paused {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	share := (1 - d.svc.delta) / float64(n)
	if share < 0 {
		return 0
	}
	return share
}

// residentTasks lists the catalog entries of all unfinished residents
// (paused or not) — the set a Configure decision must plan for, since
// a feasible decision resumes the paused ones.
func (d *deviceState) residentTasks() []model.TrainingTask {
	out := make([]model.TrainingTask, 0, len(d.training))
	for _, t := range d.training {
		if !t.done {
			out = append(out, t.task)
		}
	}
	return out
}

// residentCount counts unfinished residents without building the list.
func (d *deviceState) residentCount() int {
	n := 0
	for _, t := range d.training {
		if !t.done {
			n++
		}
	}
	return n
}

// residentScratch is residentTasks into the reusable scratch buffer —
// for callers that consume the list before returning and never retain
// it (the per-measurement oracle queries).
func (d *deviceState) residentScratch() []model.TrainingTask {
	d.taskScratch = d.taskScratch[:0]
	for _, t := range d.training {
		if !t.done {
			d.taskScratch = append(d.taskScratch, t.task)
		}
	}
	return d.taskScratch
}

// activeScratch lists only residents that are actually executing — a
// paused task's kernels are stopped (and its memory swapped out), so it
// imposes no interference on the service. Same reuse contract as
// residentScratch.
func (d *deviceState) activeScratch() []model.TrainingTask {
	d.taskScratch = d.taskScratch[:0]
	for _, t := range d.training {
		if !t.done && !t.paused {
			d.taskScratch = append(d.taskScratch, t.task)
		}
	}
	return d.taskScratch
}

// view builds the policy-facing snapshot. FreeShare is the share not
// claimed by the inference service — the room training can (re)divide:
// adding a task to a Mudi-more device redistributes the training
// shares rather than consuming new ones.
func (d *deviceState) view() core.DeviceView {
	free := 1 - d.svc.delta
	if free < 0 {
		free = 0
	}
	paused := false
	for _, t := range d.training {
		if !t.done && t.paused {
			paused = true
			break
		}
	}
	return core.DeviceView{
		Paused:        paused,
		ID:            d.id,
		ServiceName:   d.svc.info.Name,
		SLOms:         d.svc.info.SLOms,
		QPS:           d.svc.curQPS,
		Batch:         d.svc.batch,
		Delta:         d.svc.delta,
		ResidentTasks: d.residentTasks(),
		FreeShare:     free,
		MemoryFreeMB:  d.pool.CapacityMB() - d.pool.DeviceUsedMB(),
		SMUtil:        d.smUtil,
	}
}

// schedInfo builds the class framework's view of the device — the
// scheduling-relevant subset of view() plus the resident service's SLO
// class. Allocation-free (class-aware placement runs it per candidate
// per attempt).
func (d *deviceState) schedInfo() sched.DeviceInfo {
	free := 1 - d.svc.delta
	if free < 0 {
		free = 0
	}
	return sched.DeviceInfo{
		ID:            d.id,
		FreeShare:     free,
		TrainingCount: d.residentCount(),
		ServiceName:   d.svc.info.Name,
		ServiceQPS:    d.svc.curQPS,
		MemoryFreeMB:  d.pool.CapacityMB() - d.pool.DeviceUsedMB(),
		SMUtil:        d.smUtil,
		ServiceClass:  d.svc.info.Class,
	}
}

// deviceMeasurer adapts the oracle as the policy's live feedback for
// one device: measurements reflect the device's actual co-location.
type deviceMeasurer struct {
	oracle *perf.Oracle
	dev    *deviceState
	rng    *xrand.Rand
	// sim links back to the simulation for fault injection: transient
	// measurement errors and their retry accounting live on the Sim.
	sim *Sim
}

// TrainIterMs implements tuner.Measurer: the mean measured iteration
// across active residents, at a hypothetical (batch, delta). Under
// fault injection a measurement can transiently fail; the simulator
// retries with capped exponential backoff and surfaces
// faults.ErrMeasurement once the retries are exhausted (callers fall
// back to predictor-only curves).
func (m *deviceMeasurer) TrainIterMs(batch int, delta float64) (float64, error) {
	if m.sim != nil && m.sim.inj != nil {
		if err := m.sim.measureFault(m.dev); err != nil {
			return 0, err
		}
	}
	tasks := m.dev.residentScratch()
	if len(tasks) == 0 {
		return 0, fmt.Errorf("cluster: no training on %s", m.dev.id)
	}
	share := (1 - delta) / float64(len(tasks))
	if share <= 0 {
		share = 0.01
	}
	var sum float64
	for _, t := range tasks {
		v, err := m.oracle.MeasureIteration(t, share, m.dev.svc.info.Name, batch, delta, m.rng)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / float64(len(tasks)), nil
}

// InfLatencyMs implements core.Measurer.
func (m *deviceMeasurer) InfLatencyMs(batch int, delta float64) (float64, error) {
	return m.oracle.MeasureLatency(m.dev.svc.info.Name, batch, delta, m.dev.residentScratch(), m.rng)
}

var _ core.Measurer = (*deviceMeasurer)(nil)

// queueJob wraps an arrival for the scheduling queue.
type queueJob struct {
	job      *sched.Job
	arrival  trace.TaskArrival
	progress float64 // iterations completed before an eviction (checkpointing)
	requeues int
	// excluded lists devices this job was evicted from; the scheduler
	// steers the retry elsewhere.
	excluded map[string]bool
	// migrateSpan is the open migrate span started at eviction and closed
	// when the job lands on its next device; zero when tracing is off.
	migrateSpan span.ID
}
