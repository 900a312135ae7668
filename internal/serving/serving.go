// Package serving simulates one inference service instance at request
// granularity: requests queue, the backend assembles batches up to the
// configured cap (Clipper-style greedy batching — a batch launches as
// soon as the device is free), and each request's latency is its wait
// plus the batch processing time. The fidelity experiment
// (internal/exp) checks the cluster's window-level latency model against
// this request-level one.
package serving

import (
	"errors"
	"fmt"

	"mudi/internal/stats"
)

// LatencyFn returns the processing time (ms) of one batch of the given
// size under the current device configuration — typically a closure
// over the perf oracle with the service's GPU% and co-location.
type LatencyFn func(batchSize int) float64

// Config parameterizes a simulation run.
type Config struct {
	BatchCap int     // maximum requests per batch (the tuned b_i)
	SLOms    float64 // per-request latency SLO
	// FormBatches switches from greedy batching (serve whatever is
	// queued as soon as the device frees) to batch forming: wait until
	// BatchCap requests accumulate or the oldest has waited MaxWaitMs,
	// whichever comes first — the semantics of a tuned batch size b_i.
	FormBatches bool
	MaxWaitMs   float64 // batch-forming timeout; default SLOms/2
}

// Result summarizes one run.
type Result struct {
	Served        int
	Latencies     []float64 // per served request, in arrival order (ms)
	P99           float64
	Mean          float64
	ViolationRate float64 // fraction of requests over SLO
	BusyFraction  float64 // device-busy share of the simulated span
	Batches       int
	MeanBatch     float64
}

// Run simulates serving the given arrival times (seconds, sorted
// ascending) and returns per-request metrics. The device serves one
// batch at a time: greedy mode takes min(queued, BatchCap) as soon as
// the device frees; FormBatches mode waits for the batch to fill or
// the oldest request to reach MaxWaitMs.
func Run(arrivals []float64, lat LatencyFn, cfg Config) (Result, error) {
	if cfg.BatchCap <= 0 {
		return Result{}, fmt.Errorf("serving: batch cap %d", cfg.BatchCap)
	}
	if lat == nil {
		return Result{}, errors.New("serving: nil latency function")
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] < arrivals[i-1] {
			return Result{}, fmt.Errorf("serving: arrivals not sorted at %d", i)
		}
	}
	var res Result
	if len(arrivals) == 0 {
		return res, nil
	}
	maxWait := cfg.MaxWaitMs
	if maxWait <= 0 {
		maxWait = cfg.SLOms / 2
	}

	freeAt := arrivals[0] // device idle until first arrival
	var busy float64
	i := 0
	n := len(arrivals)
	// Every arrival produces exactly one latency; size the slice once
	// instead of growing it batch by batch.
	res.Latencies = make([]float64, 0, n)
	// The queue holds arrival indices. Consumption advances qhead
	// instead of shift-copying the backlog on every batch; the storage
	// is reclaimed whenever the queue drains.
	queue := make([]int, 0, cfg.BatchCap)
	qhead := 0

	for i < n || len(queue) > qhead {
		// Admit everything that arrived by the time the device is free.
		for i < n && arrivals[i] <= freeAt {
			queue = append(queue, i)
			i++
		}
		if len(queue) == qhead {
			queue, qhead = queue[:0], 0
			// Idle until the next arrival.
			if i < n {
				freeAt = arrivals[i]
				continue
			}
			break
		}
		if cfg.FormBatches && len(queue)-qhead < cfg.BatchCap && maxWait > 0 {
			// Hold the launch until the batch fills or the oldest
			// request has waited maxWait.
			deadline := arrivals[queue[qhead]] + maxWait/1000
			for len(queue)-qhead < cfg.BatchCap && i < n && arrivals[i] <= deadline {
				queue = append(queue, i)
				i++
			}
			if len(queue)-qhead < cfg.BatchCap {
				// Timed out before filling: launch at the deadline.
				if deadline > freeAt {
					freeAt = deadline
				}
			} else if last := arrivals[queue[len(queue)-1]]; last > freeAt {
				// Filled exactly when the last member arrived.
				freeAt = last
			}
		}
		take := len(queue) - qhead
		if take > cfg.BatchCap {
			take = cfg.BatchCap
		}
		batch := queue[qhead : qhead+take]
		procMs := lat(take)
		if procMs < 0 {
			return Result{}, fmt.Errorf("serving: negative latency %v for batch %d", procMs, take)
		}
		end := freeAt + procMs/1000
		for _, idx := range batch {
			res.Latencies = append(res.Latencies, (end-arrivals[idx])*1000)
		}
		res.Batches++
		res.MeanBatch += float64(take)
		busy += procMs / 1000
		qhead += take
		if qhead == len(queue) {
			queue, qhead = queue[:0], 0
		}
		freeAt = end
	}

	res.Served = len(res.Latencies)
	if res.Batches > 0 {
		res.MeanBatch /= float64(res.Batches)
	}
	var sc stats.Scratch
	res.P99 = sc.P99(res.Latencies)
	res.Mean = stats.Mean(res.Latencies)
	if cfg.SLOms > 0 {
		viol := 0
		for _, l := range res.Latencies {
			if l > cfg.SLOms {
				viol++
			}
		}
		res.ViolationRate = float64(viol) / float64(res.Served)
	}
	simSpan := freeAt - arrivals[0]
	if simSpan > 0 {
		res.BusyFraction = busy / simSpan
	}
	return res, nil
}
