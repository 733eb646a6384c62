package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
)

// binDir holds oodbd and waldump built once for the tests that need them.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "oobench-bin-")
	if err != nil {
		panic(err)
	}
	out, err := exec.Command("go", "build", "-C", "..", "-o", dir+"/", "./cmd/oodbd", "./cmd/waldump").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("build oodbd and waldump: " + err.Error() + "\n" + string(out))
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestBenchmarkJSONMatchesMetrics holds BENCHMARK.json and the metrics the
// driver prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the driver %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	same := func(kind string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the driver %d", kind, len(a), len(b))
			return
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, driver %+v", kind, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// --- planted faults: each correctness check must catch one ----------------

func TestLedgerCheckCatchesMissingTransfer(t *testing.T) {
	ledgers := []map[int]int64{{0: -30, 1: 30}, {2: -5, 0: 5}}
	bal := []int64{975, 1030, 995}
	if bad := checkLedger(bal, 1000, ledgers); len(bad) != 0 {
		t.Fatalf("consistent ledger flagged: %v", bad)
	}
	// The server lost client 1's acknowledged transfer of 5 from Acct2 to
	// Acct0.
	lost := []int64{970, 1030, 1000}
	if bad := checkLedger(lost, 1000, ledgers); len(bad) != 2 {
		t.Fatalf("missing transfer: got %v, want two accounts flagged", bad)
	}
}

func TestAuditCheckCatchesOffByOne(t *testing.T) {
	sz := bankSizesFor(true)
	want := int64(sz.Accounts) * sz.Balance
	if err := auditError(want, sz); err != nil {
		t.Fatalf("correct total flagged: %v", err)
	}
	var mis errMismatch
	if err := auditError(want-1, sz); !errors.As(err, &mis) {
		t.Fatalf("total off by one: got %v, want a wrong-result error", err)
	}
}

func TestSearchCheckCatchesWrongResult(t *testing.T) {
	sz := encSizesFor(true)
	f, err := setupEnc(Config{Seed: 1, Protocol: "open-nested"}, sz, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.db.Close()
	key := encKey(0)
	if _, err := f.runEncTxn(0, []encOp{{method: "search", key: key}}, nil); err != nil {
		t.Fatalf("search against a faithful model: %v", err)
	}
	// Plant one wrong expectation: the model says the key holds other text.
	f.models[0][key] = "c0-planted"
	var mis errMismatch
	if _, err := f.runEncTxn(0, []encOp{{method: "search", key: key}}, nil); !errors.As(err, &mis) {
		t.Fatalf("wrong search result: got %v, want a wrong-result error", err)
	}
	want := map[string]string{"k00000": "a", "k00001": "b"}
	if bad := checkEncFinal(want, "k00000=a;k00001=b", []string{"a", "b"}); len(bad) != 0 {
		t.Fatalf("consistent final state flagged: %v", bad)
	}
	if bad := checkEncFinal(want, "k00000=a;k00001=b", []string{"a", "x"}); len(bad) != 1 {
		t.Fatalf("one wrong tree search: got %v", bad)
	}
	if bad := checkEncFinal(want, "k00000=a", []string{"a", "b"}); len(bad) != 1 {
		t.Fatalf("one key missing from readSeq: got %v", bad)
	}
}

func writeLog(t *testing.T, dir string, owners ...string) {
	t.Helper()
	fw, _, err := storage.OpenFileWAL(dir, storage.FileWALOptions{Durability: storage.GroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	for i, owner := range owners {
		fw.Append(storage.Record{LSN: uint64(i + 1), Kind: storage.RecUpdate, Owner: owner, Page: 1, After: owner})
	}
	if err := fw.WaitDurable(uint64(len(owners))); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLogCompareCatchesDivergedFollower(t *testing.T) {
	lead, lagging, diverged := t.TempDir(), t.TempDir(), t.TempDir()
	writeLog(t, lead, "T1", "T2", "T3")
	writeLog(t, lagging, "T1", "T2")
	writeLog(t, diverged, "T1", "TX", "T3")
	if msg, ok := compareLogs(binDir, lead, lagging); !ok {
		t.Fatalf("lagging follower flagged: %s", msg)
	}
	if msg, ok := compareLogs(binDir, lead, diverged); ok {
		t.Fatalf("diverged follower passed: %s", msg)
	}
}

func TestVerdictCheckCatchesNegativeControl(t *testing.T) {
	h, err := loadHistories("testdata")
	if err != nil {
		t.Fatal(err)
	}
	pos, err := checkHistory(h.pos, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	neg, err := checkHistory(h.neg, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkVerdicts(pos, neg); len(bad) != 0 {
		t.Fatalf("reference histories: %v", bad)
	}
	// Swapped, the negative control stands where an accepted history must.
	if bad := checkVerdicts(neg, pos); len(bad) != 4 {
		t.Fatalf("swapped histories: got %v, want all four verdicts wrong", bad)
	}
}

// TestFreshHistoryPassesChecks records a new history from a seed, as
// gen-history does, and holds it to the recorded history's checks.
func TestFreshHistoryPassesChecks(t *testing.T) {
	data, err := genHistory(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	v, err := checkHistory(data, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.def16 || !v.online || v.txns < 6 {
		t.Fatalf("fresh history: %+v", v)
	}
}

// TestSmokeEveryWorkload runs each workload at tiny sizes, untraced and
// traced, and checks it ran correctly and reported its metrics.
func TestSmokeEveryWorkload(t *testing.T) {
	layerOfWorkload := map[string][]string{
		"enc-inproc":       {"core.exec_search_us", "core.commit_us", "cc.acquires_per_txn", "pool.hit_ratio", "self.core_us"},
		"bank-wire":        {"client.invoke_us", "server.invoke_us", "wal.fsync_us", "recovery.restart_ms", "recovery.redone"},
		"bank-repl3":       {"client.commit_us", "engine.commit_us", "wal.fsyncs_per_txn"},
		"validate-history": {"sched.check_ms", "sched.online_ms", "trace.parse_ms", "sched.objects", "self.sched_us"},
	}
	for name := range workloads {
		name := name
		for _, traced := range []bool{false, true} {
			cfg := Config{Workload: name, Seed: rand.Int63n(1000) + 1, Duration: time.Second, Traced: traced,
				BinDir: binDir, WorkDir: t.TempDir(), DataDir: "testdata", Protocol: "open-nested", Tiny: true}
			o, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", name, traced, err)
			}
			r := o.result(traced)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("%s (traced=%v): correct=%v attempted=%d failed=%d", name, traced, r.Correct, r.Attempted, r.Failed)
			}
			want := []string{}
			if !traced {
				for _, d := range endToEnd {
					want = append(want, d.Name)
				}
			} else {
				want = layerOfWorkload[name]
			}
			for _, m := range want {
				if r.Metrics[m].Value <= 0 {
					t.Errorf("%s (traced=%v): %s = %v, want > 0", name, traced, m, r.Metrics[m].Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.WorkDir, "spans-"+name+".json")); err != nil {
					t.Errorf("%s: spans not written: %v", name, err)
				}
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, c := range []struct {
		b      []float64
		higher bool
		want   string
	}{
		{shift(0.5), true, vNoWorse},
		{shift(20), true, vBetter},
		{shift(-20), true, vWorse},
		{shift(-20), false, vBetter},
		{[]float64{50, 150, 60, 140, 55, 145, 100, 100, 70, 130}, true, vUnresolved},
	} {
		if got := compareMetric(base, c.b, 0.1, c.higher).verdict; got != c.want {
			t.Errorf("higher=%v %v: verdict %s, want %s", c.higher, c.b[:3], got, c.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestReadRunSkipsTracedRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res := `{"correct":true,"attempted":3,"failed":0,"metrics":{"txn_per_s":{"value":2.5,"unit":"txn/s"}}}`
	write("a.txt", "# oobench workload=bank-wire seed=1 seconds=10 trace=0\n# table\n"+res+"\n")
	write("b.txt", "# oobench workload=bank-wire seed=2 seconds=10 trace=1\n"+res+"\n")
	write("c.txt", "not a run\n")
	runs, err := readRuns(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].workload != "bank-wire" || runs[0].result.Metrics["txn_per_s"].Value != 2.5 {
		t.Fatalf("runs = %+v", runs)
	}
	if !strings.HasPrefix(runs[0].file, "a") {
		t.Fatalf("wrong file %s", runs[0].file)
	}
}
