package mudi

// The large-fleet scaling benchmark behind BENCH_scale.json: one
// end-to-end run per fleet size, reporting wall clock, live heap
// growth, and the per-device heap footprint. The workload shape
// keeps the simulated makespan roughly constant across sizes
// (tasks = devices/8, arrival gap = 8s/devices, 0.001 iter scale), so
// the series isolates how engine cost scales with device count: the
// heap-per-device metric must fall or stay flat as the fleet grows —
// sub-linear total memory — and the 10k point is the ISSUE's
// examples/largecluster target. Every run gets a freshly built System:
// the Mudi policy learns online, so a shared one would make each size's
// workload depend on the sizes that ran before it.
//
// Regenerate with: make bench-scale

import (
	"fmt"
	"runtime"
	"testing"
)

// scaleRun executes one run at the given fleet size and returns the
// result plus the live-heap delta across it.
func scaleRun(tb testing.TB, sys *System, devices int) (*Result, uint64) {
	tb.Helper()
	arrivals, err := PhillyArrivals(devices/8, 8.0/float64(devices), 0.001, 11)
	if err != nil {
		tb.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := sys.Simulate(SimOptions{Devices: devices, Arrivals: arrivals, Shards: -1})
	if err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	heap := after.HeapAlloc - before.HeapAlloc
	if after.HeapAlloc < before.HeapAlloc {
		heap = 0
	}
	return res, heap
}

// BenchmarkScale runs the fleet-size series. -short stops at 2000
// devices; the full series (through 10000) is what BENCH_scale.json
// records and takes tens of minutes on a small host.
func BenchmarkScale(b *testing.B) {
	sizes := []int{1000, 2000, 5000, 10000}
	if testing.Short() {
		sizes = []int{1000, 2000}
	}
	for _, devices := range sizes {
		b.Run(fmt.Sprintf("devices=%d", devices), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := NewSystem(SystemConfig{Seed: 11})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, heap := scaleRun(b, sys, devices)
				if res.Completed != res.Admitted {
					b.Fatalf("completed %d of %d admitted", res.Completed, res.Admitted)
				}
				b.ReportMetric(float64(heap)/float64(devices), "heapB/device")
				b.ReportMetric(float64(devices)*res.Makespan/1e6, "Mdevice-windows")
			}
		})
	}
}
