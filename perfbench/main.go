// Command perfbench is the repository benchmark: it runs one named
// workload of the Mudi cluster simulator through the public API,
// checks every simulation's output, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics) as one JSON object on the
// last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
//
// Every simulation builds a fresh System, so no learned state carries
// between them. The load is a closed loop: one simulation at a time.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"mudi"
)

// minSims is the fewest measured simulations per end-to-end run,
// whatever --seconds says: a median needs several.
const minSims = 3

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host records what the numbers were measured on.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Lanes      int    `json:"lanes"`
	GoVersion  string `json:"go"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: physical, fleet, longhaul or observed")
	seed := fs.Uint64("seed", 1, "workload seed (generates the task arrivals)")
	seconds := fs.Float64("seconds", 20, "measurement budget in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	capture := fs.String("capture", "", "append the run's record (host, workload, result) as one JSON line to this file")
	list := fs.Bool("list", false, "print the workload names and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, w := range workloads {
			fmt.Fprint(stdout, w.name, " ")
		}
		fmt.Fprintln(stdout)
		return nil
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	inputs := make([][]mudi.TaskArrival, w.inputs)
	for k := range inputs {
		if inputs[k], err = w.arrivals(*seed, k); err != nil {
			return fmt.Errorf("arrivals: %w", err)
		}
	}
	h := host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Lanes:      w.lanes(),
		GoVersion:  runtime.Version(),
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d trace=%d devices=%d tasks=%d inputs=%d gomaxprocs=%d lanes=%d nproc=%d go=%s\n",
		w.name, *seed, *traced, w.devices, w.tasks, w.inputs, h.GOMAXPROCS, h.Lanes, h.NumCPU, h.GoVersion)

	b := newBench(w, inputs, stdout, time.Duration(*seconds*float64(time.Second)))
	var rep report
	if *traced == 1 {
		rep = b.layers()
	} else {
		rep = b.endToEnd()
	}
	for _, k := range sortedKeys(rep.Metrics) {
		fmt.Fprintf(stdout, "# %-28s %16.6f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	if *capture != "" {
		if err := appendCapture(*capture, w.name, *seed, *traced, h, rep); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// sim is one measured simulation. Host times come as wall clock and as
// process CPU time (user plus system): on a shared virtual machine the
// hypervisor's steal stretches the wall clock by tens of percent from
// one minute to the next, while the CPU time excludes it.
type sim struct {
	setupWall time.Duration // NewSystem: offline profiling and training
	setupCPU  time.Duration
	wall      time.Duration // Simulate
	cpu       time.Duration
	alloc     uint64 // bytes allocated during Simulate
	gcs       uint32 // GC cycles during Simulate
	gcPause   time.Duration
	gcCPU     float64 // GC CPU seconds during Simulate
	res       *mudi.Result
	hash      string // sha256 of Result.Summary()
	layers    *layerStats
}

// deviceWindows is the simulated work: devices x makespan windows.
func (s sim) deviceWindows(devices int) float64 {
	return float64(devices) * s.res.Makespan
}

// bench runs one workload's simulations and applies the correctness
// gates. A simulation that fails a gate counts as failed, never
// dropped.
type bench struct {
	w      workload
	inputs [][]mudi.TaskArrival
	out    io.Writer
	budget time.Duration

	attempted, failed int
	// refs[k] is the Summary hash every simulation of input k must
	// match: the first one's, or the sameAs workload's.
	refs []string
}

func newBench(w workload, inputs [][]mudi.TaskArrival, out io.Writer, budget time.Duration) *bench {
	return &bench{w: w, inputs: inputs, out: out, budget: budget, refs: make([]string, len(inputs))}
}

// simulate builds a fresh System and runs arr once under w. traced
// wraps the policy in the layer decorators and records timelines for
// the engine self-profile.
func (b *bench) simulate(w workload, arr []mudi.TaskArrival, traced bool) (sim, error) {
	var s sim
	runtime.GC()
	start, cpu0 := time.Now(), processCPU()
	sys, err := mudi.NewSystem(mudi.SystemConfig{Seed: systemSeed})
	s.setupWall, s.setupCPU = time.Since(start), processCPU()-cpu0
	if err != nil {
		return s, fmt.Errorf("NewSystem: %w", err)
	}
	var policy mudi.Policy
	if traced {
		s.layers = &layerStats{}
		policy = newTracedPolicy(sys.Policy(), s.layers)
	}
	opts := w.options(arr, policy, traced)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	start, cpu0 = time.Now(), processCPU()
	res, err := sys.Simulate(opts)
	s.wall = time.Since(start)
	s.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return s, fmt.Errorf("Simulate: %w", err)
	}
	s.alloc = m1.TotalAlloc - m0.TotalAlloc
	s.gcs = m1.NumGC - m0.NumGC
	s.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	s.gcCPU = gcCPUSeconds() - gc0
	s.res = res
	sum := sha256.Sum256([]byte(res.Summary()))
	s.hash = hex.EncodeToString(sum[:])
	return s, nil
}

// gate runs input k once under w and applies the correctness gates: no
// error, every admitted task completed, and a Summary hash equal to
// input k's reference. It reports whether the simulation passed.
func (b *bench) gate(label string, w workload, k int, traced bool) (sim, bool) {
	b.attempted++
	s, err := b.simulate(w, b.inputs[k], traced)
	if err == nil {
		err = b.check(s, k)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(b.out, "# %s input %d FAILED: %v\n", label, k, err)
		return s, false
	}
	fmt.Fprintf(b.out, "# %s input %d setup_cpu_s=%.4f setup_wall_s=%.4f sim_cpu_s=%.4f sim_wall_s=%.4f alloc_mb=%.1f makespan_s=%.0f summary=%.12s\n",
		label, k, s.setupCPU.Seconds(), s.setupWall.Seconds(), s.cpu.Seconds(), s.wall.Seconds(),
		float64(s.alloc)/1e6, s.res.Makespan, s.hash)
	return s, true
}

func (b *bench) check(s sim, k int) error {
	if s.res.Completed != s.res.Admitted {
		return fmt.Errorf("completed %d of %d admitted tasks", s.res.Completed, s.res.Admitted)
	}
	if b.refs[k] == "" {
		b.refs[k] = s.hash
		return nil
	}
	if s.hash != b.refs[k] {
		return fmt.Errorf("Summary sha256 %.12s differs from the reference %.12s", s.hash, b.refs[k])
	}
	return nil
}

// reference runs every input under the workload this one must
// reproduce, making its Summary hashes the run's references.
func (b *bench) reference() {
	if b.w.sameAs == "" {
		return
	}
	ref, err := findWorkload(b.w.sameAs)
	if err != nil {
		b.attempted++
		b.failed++
		fmt.Fprintf(b.out, "# reference FAILED: %v\n", err)
		return
	}
	for k := range b.inputs {
		b.gate("reference "+ref.name, ref, k, false)
	}
}

// enough reports whether the run has measured its least number of
// rounds and another round of typical length would overrun the budget.
func (b *bench) enough(start time.Time, rounds []time.Duration, least int) bool {
	if len(rounds) < least {
		return false
	}
	ds := make([]float64, len(rounds))
	for i, d := range rounds {
		ds[i] = float64(d)
	}
	return time.Since(start)+time.Duration(median(ds)) > b.budget
}

// endToEnd measures the workload untraced for the budget, cycling
// through its inputs; every input runs at least once and the first
// twice. Per-simulation metrics take the median over an input's
// simulations, then the mean over the inputs. The sameAs reference is
// checked by the traced run only: it would add a whole simulation to
// every run.
func (b *bench) endToEnd() report {
	var setups []sim
	byInput := make([][]sim, len(b.inputs))
	var rounds []time.Duration
	start := time.Now()
	for i := 0; !b.enough(start, rounds, max(minSims, len(b.inputs)+1)); i++ {
		t := time.Now()
		k := i % len(b.inputs)
		s, ok := b.gate(fmt.Sprintf("sim %d", i+1), b.w, k, false)
		rounds = append(rounds, time.Since(t))
		setups = append(setups, s)
		if ok {
			byInput[k] = append(byInput[k], s)
		}
	}
	perInput := func(f func(s sim) float64) float64 {
		var medians []float64
		for _, ss := range byInput {
			if len(ss) == 0 {
				continue
			}
			vs := make([]float64, len(ss))
			for i, s := range ss {
				vs[i] = f(s)
			}
			medians = append(medians, median(vs))
		}
		return mean(medians)
	}
	var setupCPU, setupWall []float64
	for _, s := range setups {
		if s.setupCPU > 0 {
			setupCPU = append(setupCPU, s.setupCPU.Seconds())
			setupWall = append(setupWall, s.setupWall.Seconds())
		}
	}
	fmt.Fprintf(b.out, "# wall clock (steal included): setup_wall_s=%.4f sim_wall_s=%.4f\n",
		median(setupWall), perInput(func(s sim) float64 { return s.wall.Seconds() }))
	return b.finish(map[string]metric{
		"setup_s":     {median(setupCPU), "s"},
		"sim_cpu_s":   {perInput(func(s sim) float64 { return s.cpu.Seconds() }), "s"},
		"alloc_mb":    {perInput(func(s sim) float64 { return float64(s.alloc) / 1e6 }), "MB"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"sim_rate_dw_per_cpu_s": {perInput(func(s sim) float64 {
			return s.deviceWindows(b.w.devices) / s.cpu.Seconds()
		}), "1/s"},
		"slo_violation_pct": {perInput(func(s sim) float64 { return s.res.MeanSLOViolation() * 100 }), "%"},
		"mean_ct_s":         {perInput(func(s sim) float64 { return s.res.MeanCT() }), "s"},
	})
}

// finish fills the failure accounting and drops values that cannot be
// encoded (a run whose every simulation failed has no medians).
func (b *bench) finish(m map[string]metric) report {
	for k, v := range m {
		if v.Value != v.Value { // NaN
			m[k] = metric{0, v.Unit}
		}
	}
	return report{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   m,
	}
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

// gcCPUSeconds is the runtime's estimate of CPU time spent in GC so far.
func gcCPUSeconds() float64 {
	metrics.Read(gcCPUSample)
	if gcCPUSample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return gcCPUSample[0].Value.Float64()
}

// appendCapture appends one JSON record of the run to path.
func appendCapture(path, workload string, seed uint64, traced int, h host, rep report) error {
	rec := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Trace    int    `json:"trace"`
		Host     host   `json:"host"`
		Result   report `json:"result"`
	}{workload, seed, traced, h, rep}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("capture: %w", err)
	}
	_, err = f.Write(append(line, '\n'))
	return errors.Join(err, f.Close())
}
