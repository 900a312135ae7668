package main

import (
	"fmt"

	"mudi"
	"mudi/internal/shard"
)

// systemSeed fixes the modelled testbed and its offline profiling. It
// plays the part of the hardware: the workload seed varies only the
// training-task arrivals, so setup_s measures the same work every run.
const systemSeed = 1

// maxInputs bounds workload.inputs; input k of seed s uses the Philly
// seed s*maxInputs+k, so distinct (seed, k) never share a trace.
const maxInputs = 16

// workload is one named input shape. The benchmark generates the
// arrivals from the workload seed and hands the program only those.
type workload struct {
	name    string
	devices int
	// PhillyArrivals(tasks, gapSec, iterScale, ...) shape.
	tasks     int
	gapSec    float64
	iterScale float64
	// inputs is how many seed-derived traces one run simulates. The
	// simulated outcome of a small, busy cluster swings with any change
	// of its input, so such a workload reports the mean over several.
	inputs int
	// shards is SimOptions.Shards: 0 is the legacy single-calendar
	// engine, -1 the sharded engine at its default lane count.
	shards int
	// observed turns on the event log, span tracing and timelines, as
	// `mudisim -events -trace -timelines` does.
	observed bool
	// sameAs names a workload whose Result.Summary() this one must
	// reproduce for the same seed.
	sameAs string
}

var workloads = []workload{
	// The paper's physical testbed (ScalePhysical): predictor writes,
	// i.e. online profiling of unseen co-locations, dominate.
	{name: "physical", devices: 12, tasks: 300, gapSec: 12, iterScale: 0.002, inputs: 3},
	// The fleet-scaling shape at 512 devices: placement scoring is
	// O(devices x tasks), so predictor reads dominate.
	{name: "fleet", devices: 512, tasks: 64, gapSec: 8.0 / 512, iterScale: 0.001, inputs: 1, shards: -1},
	// Few placements over a long horizon: the lane drain does the work.
	// The bypass workload for placement and predictor changes.
	{name: "longhaul", devices: 512, tasks: 8, gapSec: 1, iterScale: 0.02, inputs: 1, shards: -1},
	// longhaul with every instrument on; instruments force one drain
	// worker, so the engine runs differently from longhaul.
	{name: "observed", devices: 512, tasks: 8, gapSec: 1, iterScale: 0.02, inputs: 1, shards: -1,
		observed: true, sameAs: "longhaul"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// arrivals generates input k of the workload for seed. PhillyArrivals
// draws the arrival process: submission times with the trace's diurnal
// cycle and bursts. The job mix and its order are fixed per workload
// (see jobMix), each task at its nominal length times iterScale. With
// the mix drawn per seed, whether a seed drew one of the rare
// extra-large jobs swung makespan and completion time by up to 2x: the
// seed, not the program, decided the end-to-end metrics.
func (w workload) arrivals(seed uint64, k int) ([]mudi.TaskArrival, error) {
	arr, err := mudi.PhillyArrivals(w.tasks, w.gapSec, w.iterScale, seed*maxInputs+uint64(k))
	if err != nil {
		return nil, err
	}
	for i, t := range jobMix(len(arr)) {
		arr[i].Task = t
		arr[i].Iters = max(1, int(float64(t.TotalIters)*w.iterScale))
	}
	return arr, nil
}

// jobMix apportions n jobs over the training catalog by Philly weight
// (largest remainder) and interleaves them by smooth weighted round
// robin, so every prefix of the order is close to the mix.
func jobMix(n int) []mudi.TrainingTask {
	catalog := mudi.Tasks()
	var total float64
	for _, t := range catalog {
		total += t.Frac
	}
	counts := make([]int, len(catalog))
	rems := make([]float64, len(catalog))
	left := n
	for i, t := range catalog {
		q := float64(n) * t.Frac / total
		counts[i] = int(q)
		rems[i] = q - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rems {
			if rems[i] > rems[best] {
				best = i
			}
		}
		counts[best]++
		rems[best] = -1
	}
	credit := make([]int, len(catalog))
	mix := make([]mudi.TrainingTask, n)
	for j := range mix {
		best := -1
		for i, c := range counts {
			credit[i] += c
			if c > 0 && (best < 0 || credit[i] > credit[best]) {
				best = i
			}
		}
		credit[best] -= n
		mix[j] = catalog[best]
	}
	return mix
}

// options builds one simulation's options. policy nil selects the
// system's own Mudi policy; timelines forces the timeline store on.
func (w workload) options(arr []mudi.TaskArrival, policy mudi.Policy, timelines bool) mudi.SimOptions {
	return mudi.SimOptions{
		Policy:    policy,
		Devices:   w.devices,
		Arrivals:  arr,
		Shards:    w.shards,
		Observe:   w.observed,
		Trace:     w.observed,
		Timelines: w.observed || timelines,
	}
}

// lanes is the sharded engine's lane count for this workload on this
// host (0 for the legacy engine).
func (w workload) lanes() int {
	if w.shards == 0 {
		return 0
	}
	return shard.Default(w.devices)
}
