package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one metric; the lists below are the ones
// BENCHMARK.json names, and a test holds the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd metrics are printed by every untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"txn_per_s", "txn/s", "higher"},
	{"txn_p50_ms", "ms", "lower"},
	{"txn_p99_ms", "ms", "lower"},
	{"peak_mem_mb", "MB", "lower"},
}

// perLayer metrics are printed by every traced run; a layer the workload
// does not load reads 0.
var perLayer = []metricDef{
	// core (enc-inproc)
	{"core.exec_insert_us", "us", "lower"},
	{"core.exec_search_us", "us", "lower"},
	{"core.exec_delete_us", "us", "lower"},
	{"core.commit_us", "us", "lower"},
	{"core.attempts_per_txn", "attempts/txn", "lower"},
	{"core.actions_per_txn", "actions/txn", "lower"},
	{"core.page_ops_per_txn", "ops/txn", "lower"},
	// cc
	{"cc.acquires_per_txn", "acquires/txn", "lower"},
	{"cc.conflict_ratio", "ratio", "lower"},
	{"cc.wait_us_per_block", "us", "lower"},
	{"cc.deadlocks", "count", "lower"},
	// storage buffer pool
	{"pool.hit_ratio", "ratio", "higher"},
	{"pool.evictions_per_txn", "evictions/txn", "lower"},
	// client, wire, server (bank-wire, bank-repl3)
	{"client.begin_us", "us", "lower"},
	{"client.invoke_us", "us", "lower"},
	{"client.commit_us", "us", "lower"},
	{"client.roundtrips_per_txn", "trips/txn", "lower"},
	{"server.invoke_us", "us", "lower"},
	{"server.commit_us", "us", "lower"},
	{"wire.invoke_overhead_us", "us", "lower"},
	{"engine.commit_us", "us", "lower"},
	// storage WAL and group commit
	{"wal.fsyncs_per_txn", "fsyncs/txn", "lower"},
	{"wal.batch_records_mean", "records", "higher"},
	{"wal.fsync_us", "us", "lower"},
	{"wal.bytes_per_txn", "B/txn", "lower"},
	// recovery (bank-wire)
	{"recovery.restart_ms", "ms", "lower"},
	{"recovery.analysis_ms", "ms", "lower"},
	{"recovery.redo_ms", "ms", "lower"},
	{"recovery.undo_ms", "ms", "lower"},
	{"recovery.redone", "count", "lower"},
	// repl (bank-repl3)
	{"repl.lag_entries_max", "entries", "lower"},
	{"repl.transitions", "count", "lower"},
	// trace, txn, sched, graph (validate-history), per pass over both histories
	{"validate.pass_ms", "ms", "lower"},
	{"trace.parse_ms", "ms", "lower"},
	{"trace.to_system_ms", "ms", "lower"},
	{"txn.extend_ms", "ms", "lower"},
	{"sched.analyze_ms", "ms", "lower"},
	{"sched.check_ms", "ms", "lower"},
	{"sched.conventional_ms", "ms", "lower"},
	{"sched.online_ms", "ms", "lower"},
	{"sched.objects", "count", "lower"},
	{"sched.dep_edges", "count", "lower"},
	{"sched.semantic_conflicts", "count", "lower"},
	{"sched.conventional_conflicts", "count", "lower"},
	// self time per root span (a logical transaction or a validation pass)
	{"self.bench_us", "us", "lower"},
	{"self.core_us", "us", "lower"},
	{"self.client_us", "us", "lower"},
	{"self.trace_us", "us", "lower"},
	{"self.txn_us", "us", "lower"},
	{"self.sched_us", "us", "lower"},
	{"tracing.overhead_pct", "%", "lower"},
	{"tracing.spans", "count", "lower"},
}

// Outcome is what a workload measured and checked.
type Outcome struct {
	Correct   bool
	Attempted int64
	Failed    int64
	E2E       map[string]float64
	Layer     map[string]float64
	// Notes are printed with the run record (sample counts and the like).
	Notes []string
}

func newOutcome() *Outcome {
	return &Outcome{Correct: true, E2E: map[string]float64{}, Layer: map[string]float64{}}
}

// result projects the outcome onto the declared metrics of one mode.
func (o *Outcome) result(traced bool) Result {
	defs, vals := endToEnd, o.E2E
	if traced {
		defs, vals = perLayer, o.Layer
	}
	r := Result{Correct: o.Correct, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]Metric{}}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	return r
}

// --- statistics -----------------------------------------------------------

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// --- process and machine facts ---------------------------------------------

// peakRSSMB reads a process's peak resident set (VmHWM) in MB; pid 0 is
// this process.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// sourceCommit names the source the binaries were built from: the git
// commit when the checkout is a repository, else a digest of go.mod and
// every .go file outside the benchmark's own directory.
func sourceCommit() string {
	git := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		// Look no further up than the checkout itself.
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != "." || d.Name() == "oobench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			if data, err := os.ReadFile(path); err == nil {
				h.Write([]byte(path))
				h.Write(data)
			}
		}
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}
