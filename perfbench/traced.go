package main

import (
	"fmt"
	"sort"
	"time"

	"mudi"
)

// minPairs is the fewest untraced/traced pairs per traced run.
const minPairs = 2

// layers runs alternating untraced/traced pairs and reports the
// per-layer metrics of the traced simulations. Every traced Summary
// must equal the untraced one (the decorators and timelines are
// passive) and, for a workload with sameAs, the reference's.
func (b *bench) layers() report {
	b.reference()
	var plain, traced []sim
	var rounds []time.Duration
	start := time.Now()
	for i := 1; !b.enough(start, rounds, minPairs); i++ {
		t := time.Now()
		k := (i - 1) % len(b.inputs)
		// Alternate which side runs first, so a drift in host speed
		// does not land on one side only.
		order := []bool{false, true}
		if i%2 == 0 {
			order = []bool{true, false}
		}
		for _, tr := range order {
			label := fmt.Sprintf("pair %d untraced", i)
			if tr {
				label = fmt.Sprintf("pair %d traced", i)
			}
			s, ok := b.gate(label, b.w, k, tr)
			if !ok {
				continue
			}
			if tr {
				traced = append(traced, s)
			} else {
				plain = append(plain, s)
			}
		}
		rounds = append(rounds, time.Since(t))
	}

	m := map[string]metric{}
	add := func(name, unit string, f func(s sim) float64) {
		vs := make([]float64, len(traced))
		for i, s := range traced {
			vs[i] = f(s)
		}
		m[name] = metric{median(vs), unit}
	}
	dw := func(s sim) float64 { return s.deviceWindows(b.w.devices) }
	sec := func(d time.Duration) float64 { return d.Seconds() }

	// core: the Online Multiplexer's device selection.
	add("core.select_calls", "count", func(s sim) float64 { return float64(s.layers.selectCalls) })
	add("core.devices_scored", "count", func(s sim) float64 { return float64(s.layers.devicesScored) })
	add("core.select_queued", "count", func(s sim) float64 { return float64(s.layers.selectQueued) })
	add("core.select_busy_s", "s", func(s sim) float64 { return sec(s.layers.selectBusy) })
	add("core.select_us_per_device", "us", func(s sim) float64 {
		return ratio(sec(s.layers.selectBusy)*1e6, float64(s.layers.devicesScored))
	})
	add("core.select_p50_ms", "ms", func(s sim) float64 { return median0(s.layers.selectLat) })
	add("core.select_tail_ms", "ms", func(s sim) float64 { _, v := tail(s.layers.selectLat); return v })
	// The tail's percentile; core.select_calls is its sample count.
	add("core.select_tail_pct", "%", func(s sim) float64 { p, _ := tail(s.layers.selectLat); return p })

	// predictor: online learning of unseen co-locations.
	add("predictor.observe_calls", "count", func(s sim) float64 { return float64(s.layers.observeCalls) })
	add("predictor.novel_colocs", "count", func(s sim) float64 { return float64(s.layers.novelColocs) })
	add("predictor.novel_ratio", "ratio", func(s sim) float64 {
		return ratio(float64(s.layers.novelColocs), float64(s.layers.observeCalls))
	})
	add("predictor.observe_busy_s", "s", func(s sim) float64 { return sec(s.layers.observeBusy) })
	add("predictor.ms_per_novel", "ms", func(s sim) float64 {
		return ratio(sec(s.layers.observeBusy)*1e3, float64(s.layers.novelColocs))
	})

	// tuner/gp: device control (Configure, GP-LCB batching, Eq. 4).
	add("tuner.configure_calls", "count", func(s sim) float64 { return float64(s.layers.configureCalls) })
	add("tuner.configure_busy_s", "s", func(s sim) float64 { return sec(s.layers.configureBusy) })
	add("tuner.bo_iters", "count", func(s sim) float64 { return float64(s.layers.boIters) })
	add("tuner.infeasible", "count", func(s sim) float64 { return float64(s.layers.infeasible) })
	add("tuner.errors", "count", func(s sim) float64 { return float64(s.layers.configureErrs) })

	// perf: the oracle, as reached through Measurer.
	add("perf.measure_calls", "count", func(s sim) float64 { return float64(s.layers.measureCalls) })
	add("perf.measure_busy_s", "s", func(s sim) float64 { return sec(s.layers.measureBusy) })
	add("perf.measure_errors", "count", func(s sim) float64 { return float64(s.layers.measureErrs) })

	// shard / eventq: the engine self-profile from the timelines.
	add("shard.lanes", "count", func(sim) float64 { return float64(b.w.lanes()) })
	add("shard.barriers", "count", func(s sim) float64 { return engineOf(s).barriers })
	add("shard.drain_s", "s", func(s sim) float64 { return engineOf(s).drainMs / 1e3 })
	add("shard.merge_s", "s", func(s sim) float64 { return engineOf(s).mergeMs / 1e3 })
	add("shard.apply_s", "s", func(s sim) float64 { return engineOf(s).applyMs / 1e3 })
	add("shard.mail", "count", func(s sim) float64 { return engineOf(s).mail })
	add("shard.drain_ns_per_dw", "ns", func(s sim) float64 { return ratio(engineOf(s).drainMs*1e6, dw(s)) })
	add("eventq.window_s", "s", func(s sim) float64 { return engineOf(s).windowMs / 1e3 })

	// cluster: the global phase the self-profile misses, and the
	// simulated counts a host-only change must leave identical.
	add("cluster.global_s", "s", func(s sim) float64 { return globalSeconds(s) })
	add("cluster.device_windows", "count", dw)
	add("cluster.reconfigs", "count", func(s sim) float64 { return float64(s.res.Reconfigs) })
	add("cluster.paused_episodes", "count", func(s sim) float64 { return float64(s.res.PausedEpisodes) })
	add("memmgr.swap_events", "count", func(s sim) float64 { return float64(s.res.SwapEvents) })

	// runtime: the Go garbage collector during Simulate.
	add("gc.cycles", "count", func(s sim) float64 { return float64(s.gcs) })
	add("gc.pause_s", "s", func(s sim) float64 { return sec(s.gcPause) })
	add("gc.cpu_s", "s", func(s sim) float64 { return s.gcCPU })

	// Instruments: the event log and span tracer (observed only).
	add("obs.events", "count", func(s sim) float64 { return float64(len(s.res.Events)) })
	add("span.spans", "count", func(s sim) float64 { return float64(len(s.res.Spans)) })

	// Shares of the traced Simulate wall clock. core and predictor run
	// inside the global phase; on the sharded engine the tuner runs in
	// the apply phase, on the legacy engine in the global phase.
	add("traced.sim_wall_s", "s", func(s sim) float64 { return sec(s.wall) })
	share := func(part func(s sim) float64) func(s sim) float64 {
		return func(s sim) float64 { return ratio(100*part(s), sec(s.wall)) }
	}
	add("share.core_pct", "%", share(func(s sim) float64 { return sec(s.layers.selectBusy) }))
	add("share.predictor_pct", "%", share(func(s sim) float64 { return sec(s.layers.observeBusy) }))
	add("share.tuner_pct", "%", share(func(s sim) float64 { return sec(s.layers.configureBusy) }))
	add("share.engine_pct", "%", share(func(s sim) float64 { return engineOf(s).windowMs / 1e3 }))
	add("share.global_pct", "%", share(globalSeconds))

	// The untraced side's wall clock, and the tracing overhead in CPU
	// time, which steal on a shared host does not inflate.
	var pw, pc, tc []float64
	for _, s := range plain {
		pw = append(pw, s.wall.Seconds())
		pc = append(pc, s.cpu.Seconds())
	}
	for _, s := range traced {
		tc = append(tc, s.cpu.Seconds())
	}
	m["host.sim_wall_s"] = metric{median(pw), "s"}
	m["trace_overhead_pct"] = metric{ratio(100*(median(tc)-median(pc)), median(pc)), "%"}
	return b.finish(m)
}

// globalSeconds is the traced Simulate wall clock minus the engine's
// profiled phases (sharded: drain, merge and apply; legacy: the window
// loop): the global control-plane phase.
func globalSeconds(s sim) float64 {
	return s.wall.Seconds() - engineOf(s).windowMs/1e3
}

// engineProfile totals the engine self-profiling timelines of one run.
type engineProfile struct {
	windowMs, drainMs, mergeMs, applyMs, mail float64
	barriers                                  float64
}

func engineOf(s sim) engineProfile {
	var e engineProfile
	for _, tl := range s.res.Timelines {
		sum, n := seriesTotal(tl)
		switch tl.Kind {
		case "engine_window_ms":
			e.windowMs = sum
		case "engine_drain_ms":
			e.drainMs, e.barriers = sum, float64(n)
		case "engine_merge_ms":
			e.mergeMs = sum
		case "engine_apply_ms":
			e.applyMs = sum
		case "engine_mail":
			e.mail = sum
		}
	}
	return e
}

// seriesTotal sums every raw sample of an exported series. The
// coarsest level holds every sample that has completed a bucket of the
// next-finer tier (including its own pending bucket); each finer
// non-raw level adds its pending bucket (a bucket with fewer samples
// than its stride), which has not cascaded yet.
func seriesTotal(tl mudi.Timeline) (sum float64, count int64) {
	lv := tl.Levels
	if len(lv) == 0 {
		return 0, 0
	}
	if len(lv) == 1 {
		for _, bk := range lv[0].Buckets {
			sum += bk.Sum
			count += bk.Count
		}
		return sum, count
	}
	for _, bk := range lv[len(lv)-1].Buckets {
		sum += bk.Sum
		count += bk.Count
	}
	for _, l := range lv[1 : len(lv)-1] {
		if n := len(l.Buckets); n > 0 && l.Buckets[n-1].Count < int64(l.Stride) {
			sum += l.Buckets[n-1].Sum
			count += l.Buckets[n-1].Count
		}
	}
	return sum, count
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median0 is median with 0 for an empty sample.
func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
