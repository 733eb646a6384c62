// Command oobench is the engine's benchmark: four workloads, each loading a
// different set of the repository's modules, that print every end-to-end
// or per-layer metric by name and unit and check the program's outputs
// against values computed apart from the program.
//
// Usage (from the repository root; run.sh builds oodbd, waldump and this
// driver from source first):
//
//	bash oobench/run.sh --workload enc-inproc --seed 1 --seconds 10 --trace 0
//	bash oobench/run.sh compare <runs-dir-A> <runs-dir-B>
//	bash oobench/run.sh gen-history --seed 1 --txns 10 --out oobench/testdata/history.json
//
// With --trace 0 the last line of standard output is one JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics
// of a traced run instead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Config is what every workload runs with.
type Config struct {
	Workload string
	Seed     int64
	Duration time.Duration
	Traced   bool
	// BinDir holds the oodbd and waldump binaries; WorkDir is scratch
	// space for WAL directories and span files.
	BinDir  string
	WorkDir string
	// DataDir holds validate-history's two histories.
	DataDir string
	// Protocol is the enc-inproc concurrency-control protocol.
	Protocol string
	// Tiny shrinks every input to smoke-test size (the tests set it).
	Tiny bool
	// Log receives progress and failure notes (standard error).
	Log io.Writer
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, "oobench: "+format+"\n", args...)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(Config) (*Outcome, error){
	"enc-inproc":       runEncInproc,
	"bank-wire":        runBankWire,
	"bank-repl3":       runBankRepl3,
	"validate-history": runValidateHistory,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(runCompare(os.Args[2:], os.Stdout))
		case "gen-history":
			os.Exit(runGenHistory(os.Args[2:]))
		}
	}
	var cfg Config
	flag.StringVar(&cfg.Workload, "workload", "", "workload: enc-inproc | bank-wire | bank-repl3 | validate-history")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&cfg.BinDir, "bin", ".bench_build/bin", "directory holding the oodbd and waldump binaries")
	flag.StringVar(&cfg.WorkDir, "work", ".bench_build", "scratch directory for WAL directories and span files")
	flag.StringVar(&cfg.DataDir, "data", "oobench/testdata", "directory holding validate-history's histories")
	flag.StringVar(&cfg.Protocol, "protocol", "open-nested", "enc-inproc protocol: open-nested | 2pl-page | 2pl-object | closed-nested")
	flag.Parse()
	run, ok := workloads[cfg.Workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "oobench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	var err error
	if cfg.WorkDir, err = filepath.Abs(cfg.WorkDir); err == nil {
		err = os.MkdirAll(cfg.WorkDir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "oobench: work directory: %v\n", err)
		os.Exit(1)
	}
	cfg.Duration = time.Duration(*seconds) * time.Second
	cfg.Traced = *trace == 1
	cfg.Log = os.Stderr

	fmt.Printf("# oobench workload=%s seed=%d seconds=%d trace=%d protocol=%s %s\n",
		cfg.Workload, cfg.Seed, *seconds, *trace, cfg.Protocol, machineStamp())
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oobench: %s: %v\n", cfg.Workload, err)
		os.Exit(1)
	}
	res := out.result(cfg.Traced)
	for _, n := range out.Notes {
		fmt.Println("# " + n)
	}
	printTable(os.Stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oobench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printTable prints the run's figures one per line, ahead of the JSON.
func printTable(w io.Writer, r Result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "# %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// machineStamp names the machine and build a run's numbers come from.
func machineStamp() string {
	return fmt.Sprintf("gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), sourceCommit())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
