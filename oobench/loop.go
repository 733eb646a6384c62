package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call recorded by the benchmark's own code in a traced
// run. Spans of one logical transaction (or validation pass) share Txn.
type Span struct {
	Txn    int64  `json:"txn"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps one client's spans in memory. A nil *spanLog records
// nothing, so untraced code paths call it unconditionally.
type spanLog struct {
	t0    time.Time
	txn   int64
	spans []Span
}

func (l *spanLog) start(parent int32, name string) int32 {
	if l == nil {
		return -1
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, Span{Txn: l.txn, ID: id, Parent: parent, Name: name, Start: int64(time.Since(l.t0))})
	return id
}

func (l *spanLog) finish(id int32) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].End = int64(time.Since(l.t0))
}

// add records a span whose start (and end, unless zero) were taken
// elsewhere.
func (l *spanLog) add(parent int32, name string, start, end time.Time) int32 {
	if l == nil {
		return -1
	}
	id := int32(len(l.spans))
	sp := Span{Txn: l.txn, ID: id, Parent: parent, Name: name, Start: int64(start.Sub(l.t0))}
	if !end.IsZero() {
		sp.End = int64(end.Sub(l.t0))
	}
	l.spans = append(l.spans, sp)
	return id
}

func (l *spanLog) finishAt(id int32, end time.Time) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].End = int64(end.Sub(l.t0))
}

// layerOf maps a span name to the module it times; the generator's own
// spans (txn, attempt, pass) belong to "bench".
func layerOf(name string) string {
	if layer, _, ok := strings.Cut(name, "."); ok {
		return layer
	}
	return "bench"
}

// spanSummary reduces traced spans to per-name mean durations and
// per-layer self time (a span's duration minus its children's).
type spanSummary struct {
	roots     int
	count     int
	meanNs    map[string]float64
	selfNsPer map[string]float64 // per layer, per root span
}

func summarize(logs []*spanLog) spanSummary {
	s := spanSummary{meanNs: map[string]float64{}, selfNsPer: map[string]float64{}}
	total := map[string]float64{}
	calls := map[string]int{}
	self := map[string]float64{}
	for _, l := range logs {
		selfOf := make([]float64, len(l.spans))
		for i, sp := range l.spans {
			d := float64(sp.End - sp.Start)
			selfOf[i] += d
			if sp.Parent >= 0 {
				selfOf[sp.Parent] -= d
			} else {
				s.roots++
			}
			total[sp.Name] += d
			calls[sp.Name]++
		}
		for i, sp := range l.spans {
			self[layerOf(sp.Name)] += selfOf[i]
		}
		s.count += len(l.spans)
	}
	for n, t := range total {
		s.meanNs[n] = t / float64(calls[n])
	}
	for layer, t := range self {
		s.selfNsPer[layer] = ratio(t, float64(s.roots))
	}
	return s
}

// writeSpans writes every client's spans to one JSON file, renumbering ids
// so they are unique across clients.
func writeSpans(path string, logs []*spanLog) error {
	var all []Span
	for ci, l := range logs {
		off := int32(len(all))
		for _, sp := range l.spans {
			sp.ID += off
			if sp.Parent >= 0 {
				sp.Parent += off
			}
			sp.Txn = sp.Txn*int64(len(logs)) + int64(ci)
			all = append(all, sp)
		}
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// loopStats is what the closed loop measured.
type loopStats struct {
	committed int64
	failed    int64
	attempts  int64
	elapsed   time.Duration
	latNs     []float64 // per committed logical transaction, untraced rounds
	tracedNs  []float64 // the same, traced rounds
	doneAt    []float64 // when each latNs sample completed, ns since the start
	logs      []*spanLog
	errs      []string // failed operations (first few per client)
	wrong     []string // committed transactions whose results the model refutes
}

// txnFunc runs logical transaction i of client c's round r and returns how
// many attempts it took. A returned error is a failed operation.
type txnFunc func(c, r, i int, sl *spanLog) (attempts int, err error)

// closedLoop runs clients goroutines, each issuing its next transaction
// only after the previous one was acknowledged, in whole rounds of
// roundTxns transactions, until d has elapsed. In a traced run every
// other round records spans, so the untraced rounds between them give the
// tracing overhead.
func closedLoop(clients, roundTxns int, d time.Duration, traced bool, fn txnFunc) loopStats {
	var (
		mu  sync.Mutex
		out loopStats
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat, tlat []float64
			var done []float64
			var committed, failed, attempts int64
			var log *spanLog
			if traced {
				log = &spanLog{t0: start}
			}
			var errs, wrong []string
			for r := 0; ; r++ {
				var sl *spanLog
				if traced && r%2 == 1 {
					sl = log
				}
				for i := 0; i < roundTxns; i++ {
					if sl != nil {
						sl.txn++
					}
					t0 := time.Now()
					n, err := fn(c, r, i, sl)
					el := float64(time.Since(t0))
					attempts += int64(n)
					var mis errMismatch
					if errors.As(err, &mis) {
						wrong = append(wrong, mis...)
						err = nil
					}
					if err != nil {
						failed++
						if len(errs) < 5 {
							errs = append(errs, err.Error())
						}
						continue
					}
					committed++
					if sl != nil {
						tlat = append(tlat, el)
					} else {
						lat = append(lat, el)
						done = append(done, float64(time.Since(start)))
					}
				}
				// A traced run needs a traced round and an untraced one.
				if time.Since(start) >= d && (!traced || r >= 1) {
					break
				}
			}
			mu.Lock()
			out.committed += committed
			out.failed += failed
			out.attempts += attempts
			out.latNs = append(out.latNs, lat...)
			out.doneAt = append(out.doneAt, done...)
			out.tracedNs = append(out.tracedNs, tlat...)
			if log != nil {
				out.logs = append(out.logs, log)
			}
			out.errs = append(out.errs, errs...)
			out.wrong = append(out.wrong, wrong...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// report fills the closed loop's end-to-end figures, or in a traced run
// the span-derived per-layer figures, into o.
func (s loopStats) report(cfg Config, o *Outcome) {
	o.Attempted += s.committed + s.failed
	o.Failed += s.failed
	o.E2E["txn_per_s"] = ratio(float64(s.committed), s.elapsed.Seconds())
	p50, p99, windows := windowedQuantiles(s.latNs, s.doneAt)
	o.E2E["txn_p50_ms"] = p50 / 1e6
	o.E2E["txn_p99_ms"] = p99 / 1e6
	o.Notes = append(o.Notes, fmt.Sprintf("latency samples=%d in %d windows of %d (traced rounds excluded: %d)",
		len(s.latNs), windows, windowSamples, len(s.tracedNs)))
	o.Layer["core.attempts_per_txn"] = ratio(float64(s.attempts), float64(s.committed+s.failed))
	for _, e := range s.errs {
		cfg.logf("failed operation: %s", e)
	}
	for i, w := range s.wrong {
		o.Correct = false
		if i < 5 {
			cfg.logf("wrong result: %s", w)
		}
	}
	if !cfg.Traced {
		return
	}
	fillSpanMetrics(cfg, o, s.logs, mean(s.tracedNs), mean(s.latNs))
}

// windowSamples is how many consecutive completions form one latency
// window, ten beyond its 99th percentile. The reported percentiles are the
// medians over the run's windows of each window's percentile, so one slow
// stretch of a run (a collection of the grown heap, a busy neighbour)
// moves them less.
const windowSamples = 1000

// windowedQuantiles returns the medians over windows of each window's 50th
// and 99th percentile, and the number of windows; a run too short for one
// window gets the percentiles of all its samples.
func windowedQuantiles(lat, doneAt []float64) (p50, p99 float64, windows int) {
	order := make([]int, len(lat))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return doneAt[order[a]] < doneAt[order[b]] })
	var w50, w99 []float64
	for lo := 0; lo+windowSamples <= len(order); lo += windowSamples {
		xs := make([]float64, windowSamples)
		for j := range xs {
			xs[j] = lat[order[lo+j]]
		}
		w50 = append(w50, quantile(xs, 0.50))
		w99 = append(w99, quantile(xs, 0.99))
	}
	if len(w99) == 0 {
		all := append([]float64(nil), lat...)
		return quantile(all, 0.50), quantile(all, 0.99), 0
	}
	return median(w50), median(w99), len(w99)
}

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return ratio(t, float64(len(xs)))
}

// fillSpanMetrics derives the self-time and per-call figures from a traced
// run's spans and writes the spans out.
func fillSpanMetrics(cfg Config, o *Outcome, logs []*spanLog, tracedMean, untracedMean float64) {
	sum := summarize(logs)
	for _, layer := range []string{"bench", "core", "client", "trace", "txn", "sched"} {
		o.Layer["self."+layer+"_us"] = sum.selfNsPer[layer] / 1e3
	}
	for name, ns := range sum.meanNs {
		if _, ok := o.Layer[name+"_us"]; ok || strings.HasPrefix(name, "core.") || strings.HasPrefix(name, "client.") {
			o.Layer[name+"_us"] = ns / 1e3
		}
	}
	o.Layer["tracing.spans"] = float64(sum.count)
	if untracedMean > 0 {
		o.Layer["tracing.overhead_pct"] = 100 * (tracedMean/untracedMean - 1)
	}
	path := filepath.Join(cfg.WorkDir, "spans-"+cfg.Workload+".json")
	if err := writeSpans(path, logs); err != nil {
		cfg.logf("write spans: %v", err)
	} else {
		cfg.logf("spans written to %s", path)
	}
}

// setupReps is how many times each run sets its workload up; setup_s is
// the median.
const setupReps = 5

// medianSetup runs setup reps times, tearing each fixture down before the
// next set-up except the last, which it returns with the median time.
func medianSetup[F any](reps int, setup func() (F, error), teardown func(F)) (F, float64, error) {
	var times []time.Duration
	for i := 0; ; i++ {
		t0 := time.Now()
		f, err := setup()
		if err != nil {
			return f, 0, err
		}
		times = append(times, time.Since(t0))
		if i == reps-1 {
			return f, median(seconds(times)), nil
		}
		teardown(f)
	}
}
