// Command compare diffs two perfbench captures — files of JSON lines
// written by `perfbench --capture FILE` (see capture.sh) — under the
// bounds of BENCHMARK.json. For every workload and metric it prints
// each side's median and quartiles and a verdict:
//
//   - better: the new side wins at least nine tenths of the seed pairs
//     and its median beats the old one by more than the old side's
//     spread (quartile distance as a share of the median);
//   - worse: the new median is worse than the old by more than the
//     metric's bound (per-layer metrics, which have no bound: it loses
//     nine tenths of the pairs by more than the spread);
//   - unresolved: a side's spread is wider than the bound, and the
//     runs do not separate completely;
//   - unchanged: none of the above.
//
// Usage, from the repository root:
//
//	go -C perfbench run ./compare -bench ../BENCHMARK.json old.ndjson new.ndjson
//
// Relative capture paths are resolved against the perfbench
// directory when run with -C; pass absolute paths to avoid surprises.
// The exit code is 1 when any end-to-end metric is worse.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Host     struct {
		GOMAXPROCS int `json:"gomaxprocs"`
		Lanes      int `json:"lanes"`
	} `json:"host"`
	Result struct {
		Attempted int `json:"attempted"`
		Failed    int `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

type group struct {
	workload string
	trace    int
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] OLD.ndjson NEW.ndjson")
		os.Exit(2)
	}
	worse, err := run(*benchPath, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if worse {
		os.Exit(1)
	}
}

func run(benchPath, oldPath, newPath string) (bool, error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	olds, err := load(oldPath)
	if err != nil {
		return false, err
	}
	news, err := load(newPath)
	if err != nil {
		return false, err
	}
	groups := map[group]bool{}
	for _, r := range append(append([]record(nil), olds...), news...) {
		groups[group{r.Workload, r.Trace}] = true
	}
	keys := make([]group, 0, len(groups))
	for g := range groups {
		keys = append(keys, g)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].trace != keys[j].trace {
			return keys[i].trace < keys[j].trace
		}
		return keys[i].workload < keys[j].workload
	})

	anyWorse := false
	for _, g := range keys {
		specs := spec.EndToEnd
		if g.trace == 1 {
			specs = spec.PerLayer
		}
		fmt.Printf("== %s (trace %d)\n", g.workload, g.trace)
		for _, who := range []struct {
			name string
			recs []record
		}{{"old", olds}, {"new", news}} {
			att, fail, hosts := 0, 0, map[string]bool{}
			for _, r := range who.recs {
				if (group{r.Workload, r.Trace}) == g {
					att += r.Result.Attempted
					fail += r.Result.Failed
					hosts[fmt.Sprintf("gomaxprocs=%d lanes=%d", r.Host.GOMAXPROCS, r.Host.Lanes)] = true
				}
			}
			fmt.Printf("   %s: runs_failed %d of %d attempted; %v\n", who.name, fail, att, sortedSet(hosts))
		}
		fmt.Printf("   %-28s %-6s %34s %34s %8s  %s\n", "metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "delta", "verdict")
		for _, ms := range specs {
			o := values(olds, g, ms.Name)
			n := values(news, g, ms.Name)
			if len(o) == 0 || len(n) == 0 {
				fmt.Printf("   %-28s %-6s missing on one side\n", ms.Name, ms.Unit)
				continue
			}
			v := verdict(ms, o, n)
			if v == "worse" && g.trace == 0 {
				anyWorse = true
			}
			om, nm := median(flat(o)), median(flat(n))
			fmt.Printf("   %-28s %-6s %34s %34s %+7.2f%%  %s\n", ms.Name, ms.Unit,
				summary(flat(o)), summary(flat(n)), 100*rel(nm, om), v)
		}
	}
	return anyWorse, nil
}

func load(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// values collects one metric per seed for a group.
func values(recs []record, g group, name string) map[uint64][]float64 {
	out := map[uint64][]float64{}
	for _, r := range recs {
		if (group{r.Workload, r.Trace}) != g {
			continue
		}
		if m, ok := r.Result.Metrics[name]; ok {
			out[r.Seed] = append(out[r.Seed], m.Value)
		}
	}
	return out
}

// verdict applies the rules in the package comment. Values are
// oriented so that lower is better before comparing.
func verdict(ms metricSpec, o, n map[uint64][]float64) string {
	sign := 1.0
	if ms.Better == "higher" {
		sign = -1
	}
	of, nf := flat(o), flat(n)
	om, nm := median(of), median(nf)
	if om == nm && spread(of) == 0 && spread(nf) == 0 {
		return "unchanged"
	}
	change := sign * rel(nm, om) // > 0 is worse
	oSpread, nSpread := spread(of), spread(nf)

	// Seed pairs: the new side's median per seed against the old's.
	wins, losses, pairs := 0, 0, 0
	for seed, ov := range o {
		nv, ok := n[seed]
		if !ok {
			continue
		}
		pairs++
		d := sign * (median(nv) - median(ov))
		switch {
		case d < 0:
			wins++
		case d > 0:
			losses++
		}
	}
	mostly := func(k int) bool { return pairs > 0 && float64(k) >= 0.9*float64(pairs) }
	oLo, oHi := minMax(of)
	nLo, nHi := minMax(nf)
	allBetter := (sign > 0 && nHi < oLo) || (sign < 0 && nLo > oHi)
	allWorse := (sign > 0 && nLo > oHi) || (sign < 0 && nHi < oLo)

	if ms.Bound > 0 {
		if oSpread > ms.Bound || nSpread > ms.Bound {
			switch {
			case allBetter:
				return "better"
			case allWorse:
				return "worse"
			}
			return "unresolved"
		}
		if change > ms.Bound {
			return "worse"
		}
		if mostly(wins) && -change > oSpread {
			return "better"
		}
		return "unchanged"
	}
	switch {
	case mostly(wins) && -change > oSpread:
		return "better"
	case mostly(losses) && change > oSpread:
		return "worse"
	case math.Abs(change) <= oSpread && math.Abs(change) <= nSpread:
		return "unchanged"
	}
	return "unresolved"
}

func flat(m map[uint64][]float64) []float64 {
	var out []float64
	for _, vs := range m {
		out = append(out, vs...)
	}
	return out
}

// rel is (a-b)/|b|, 0 when both are 0.
func rel(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (a - b) / math.Abs(b)
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles follows Python's statistics.quantiles(xs, n=4), the
// "exclusive" method, as the benchmark's spread rule does.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
