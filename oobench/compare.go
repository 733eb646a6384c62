package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the compare command reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRecord is one untraced run read back from its saved standard output.
type runRecord struct {
	file     string
	workload string
	result   Result
}

// readRuns reads every saved run in dir: a file whose first line is the
// run record and whose last line is the result JSON. Traced runs are
// skipped, since their metrics are per-layer.
func readRuns(dir string) ([]runRecord, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []runRecord
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		r, ok, err := readRun(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if ok {
			runs = append(runs, r)
		}
	}
	return runs, nil
}

func readRun(path string) (runRecord, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return runRecord{}, false, err
	}
	defer f.Close()
	r := runRecord{file: filepath.Base(path)}
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	traced := false
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# oobench "); ok {
			for _, kv := range strings.Fields(rest) {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "workload":
					r.workload = v
				case "trace":
					traced = v == "1"
				}
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return r, false, err
	}
	if r.workload == "" || traced || !strings.HasPrefix(last, "{") {
		return r, false, nil
	}
	if err := json.Unmarshal([]byte(last), &r.result); err != nil {
		return r, false, err
	}
	return r, true, nil
}

// verdict names for compare rows.
const (
	vBetter     = "better"
	vNoWorse    = "no-worse"
	vWorse      = "worse"
	vUnresolved = "unresolved"
)

// metricCompare is the comparison of one metric on one workload between a
// base set of runs (A) and a candidate set (B).
type metricCompare struct {
	a, b             [3]float64 // first quartile, median, third quartile
	wins, pairs      int        // pairs (in file order) where B reads better than A
	spreadA, spreadB float64    // interquartile distance as a share of the median
	change           float64    // (median B - median A) / median A
	verdict          string
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so the spreads printed here match the ones the benchmark's
// acceptance rule is stated in.
func quartiles(xs []float64) [3]float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 1 {
		return [3]float64{ys[0], ys[0], ys[0]}
	}
	var q [3]float64
	for i := range q {
		j := (i + 1) * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64((i+1)*(n+1) - 4*j)
		q[i] = (ys[j-1]*(4-delta) + ys[j]*delta) / 4
	}
	return q
}

// compareMetric applies the benchmark's rule: a change is worse when its
// median is worse than the base median by more than the bound; better
// when it wins at least nine pairs in ten and the medians differ by more
// than the base's own spread; unresolved when either side's spread exceeds
// the bound, unless every B run beats (or loses to) every A run.
func compareMetric(a, b []float64, bound float64, higherIsBetter bool) metricCompare {
	var m metricCompare
	if len(a) == 0 || len(b) == 0 {
		m.verdict = vUnresolved
		return m
	}
	m.a, m.b = quartiles(a), quartiles(b)
	m.spreadA = ratio(m.a[2]-m.a[0], m.a[1])
	m.spreadB = ratio(m.b[2]-m.b[0], m.b[1])
	m.change = ratio(m.b[1]-m.a[1], m.a[1])
	better := func(x, y float64) bool { // x reads better than y
		if higherIsBetter {
			return x > y
		}
		return x < y
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		m.pairs++
		if better(b[i], a[i]) {
			m.wins++
		}
	}
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	allBetter, allWorse := maxB < minA, minB > maxA
	if higherIsBetter {
		allBetter, allWorse = minB > maxA, maxB < minA
	}
	worse := m.change
	if higherIsBetter {
		worse = -m.change
	}
	switch {
	case allBetter:
		m.verdict = vBetter
	case allWorse && worse > bound:
		m.verdict = vWorse
	case m.spreadA > bound || m.spreadB > bound:
		m.verdict = vUnresolved
	case worse > bound:
		m.verdict = vWorse
	case 10*m.wins >= 9*m.pairs && -worse*m.a[1] > m.a[2]-m.a[0]:
		m.verdict = vBetter
	default:
		m.verdict = vNoWorse
	}
	return m
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// runCompare implements "oobench compare [-bench BENCHMARK.json] A B": one
// row per workload, with each end-to-end metric's median, quartiles, pair
// wins and verdict. It exits 1 when any metric is worse.
func runCompare(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: oobench compare [-bench BENCHMARK.json] <base-runs-dir> <candidate-runs-dir>")
		return 2
	}
	data, err := os.ReadFile(*specPath)
	var spec benchSpec
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "oobench compare: %v\n", err)
		return 2
	}
	sets := make([]map[string][]runRecord, 2)
	for i, dir := range fs.Args() {
		runs, err := readRuns(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oobench compare: %v\n", err)
			return 2
		}
		sets[i] = map[string][]runRecord{}
		for _, r := range runs {
			sets[i][r.workload] = append(sets[i][r.workload], r)
		}
	}
	var names []string
	for wl := range sets[0] {
		names = append(names, wl)
	}
	for wl := range sets[1] {
		if _, ok := sets[0][wl]; !ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(w, "base %s vs candidate %s; per metric: median [q1 q3] base -> candidate, change, pairs won by candidate, verdict\n", fs.Arg(0), fs.Arg(1))
	for _, wl := range names {
		a, b := sets[0][wl], sets[1][wl]
		fmt.Fprintf(w, "%s (runs: %d base, %d candidate)\n", wl, len(a), len(b))
		for _, d := range spec.EndToEnd {
			m := compareMetric(values(a, d.Name), values(b, d.Name), d.Bound, d.Better == "higher")
			if m.verdict == vWorse {
				code = 1
			}
			fmt.Fprintf(w, "  %-12s %10.4g [%.4g %.4g] -> %10.4g [%.4g %.4g] %+7.2f%% (bound %.0f%%, spread %.1f%%/%.1f%%) wins %d/%d  %s\n",
				d.Name, m.a[1], m.a[0], m.a[2], m.b[1], m.b[0], m.b[2], 100*m.change,
				100*d.Bound, 100*m.spreadA, 100*m.spreadB, m.wins, m.pairs, m.verdict)
		}
	}
	return code
}

// values lists one metric over runs, in file-name order.
func values(runs []runRecord, name string) []float64 {
	sorted := append([]runRecord(nil), runs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].file < sorted[j].file })
	var out []float64
	for _, r := range sorted {
		if m, ok := r.result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
