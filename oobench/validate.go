package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/btree"
	"repro/internal/commut"
	"repro/internal/core"
	"repro/internal/enc"
	"repro/internal/list"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The two histories validate-history checks, kept under the data directory.
const (
	historyFile  = "history.json"  // recorded two-client open-nested run
	negativeFile = "negative.json" // two transactions in opposite page order
)

// runtimeRegistry holds the commutativity specifications of every built-in
// type, the same set cmd/schedcheck matches recorded traces against.
func runtimeRegistry() *commut.Registry {
	reg := commut.NewRegistry()
	reg.Register(core.PageType, core.PageSpec())
	reg.Register(btree.TreeType, btree.TreeSpec())
	reg.Register(btree.NodeType, btree.NodeSpec())
	reg.Register(list.Type, list.Spec())
	reg.Register(enc.Type, enc.Spec())
	reg.Register(enc.ItemType, enc.ItemSpec())
	reg.Register(workload.DocumentType, workload.DocSpec())
	reg.Register(workload.AccountType, workload.AccountSpec())
	return reg
}

// verdict is what one history's full check found.
type verdict struct {
	def16     bool // Definition 16 (sched.Analysis.Check)
	online    bool // the incremental certifier saw no violation
	txns      int
	objects   int
	depEdges  int
	semantic  int
	conflicts int
	// eventNs is the online certifier's time to admit each event.
	eventNs []float64
}

// checkHistory runs the checker the way schedcheck -online does: parse,
// reconstruct, extend, analyse, Definition 16 check, conventional check,
// then the online certifier over the same events.
func checkHistory(data []byte, sl *spanLog, parent int32) (verdict, error) {
	var v verdict
	reg := runtimeRegistry()
	s := sl.start(parent, "trace.parse")
	tr, err := trace.Unmarshal(data)
	sl.finish(s)
	if err != nil {
		return v, err
	}
	s = sl.start(parent, "trace.to_system")
	sys, order, err := tr.ToSystem()
	sl.finish(s)
	if err != nil {
		return v, err
	}
	v.txns = len(sys.Top)
	s = sl.start(parent, "txn.extend")
	sys.Extend()
	sl.finish(s)
	s = sl.start(parent, "sched.analyze")
	a, err := sched.Analyze(sys, reg, order)
	sl.finish(s)
	if err != nil {
		return v, err
	}
	s = sl.start(parent, "sched.check")
	rep := a.Check()
	sl.finish(s)
	s = sl.start(parent, "sched.conventional")
	conv := a.Conventional()
	sl.finish(s)
	v.def16 = rep.SystemOOSerializable
	v.conflicts = conv.Conflicts
	s = sl.start(parent, "sched.counts")
	v.semantic = a.SemanticConflicts()
	for _, o := range a.Objects() {
		v.objects++
		v.depEdges += a.TranDep[o].NumEdges() + a.ActDep[o].NumEdges()
	}
	sl.finish(s)

	s = sl.start(parent, "sched.online")
	defer sl.finish(s)
	on := sched.NewOnline(reg)
	v.eventNs = make([]float64, 0, len(tr.Events))
	for _, ev := range tr.Events {
		t0 := time.Now()
		err := on.Add(sched.StreamEvent{
			ID: ev.ID, Parent: ev.Parent, ObjType: ev.ObjType, ObjName: ev.ObjName,
			Method: ev.Method, Params: ev.Params, Parallel: ev.Parallel, Aborted: ev.Aborted,
		})
		v.eventNs = append(v.eventNs, float64(time.Since(t0)))
		if err != nil {
			return v, fmt.Errorf("online certifier: %w", err)
		}
		if !on.OK() {
			break
		}
	}
	v.online = on.OK()
	return v, nil
}

// checkVerdicts holds the two histories to what they must be: the recorded
// one accepted by both checks, the negative control rejected by both.
func checkVerdicts(pos, neg verdict) []string {
	var bad []string
	if !pos.def16 {
		bad = append(bad, "recorded history rejected by the Definition 16 check")
	}
	if !pos.online {
		bad = append(bad, "recorded history rejected by the online certifier")
	}
	if neg.def16 {
		bad = append(bad, "negative-control history accepted by the Definition 16 check")
	}
	if neg.online {
		bad = append(bad, "negative-control history accepted by the online certifier")
	}
	return bad
}

type histories struct{ pos, neg []byte }

func loadHistories(dir string) (histories, error) {
	var h histories
	var err error
	if h.pos, err = os.ReadFile(filepath.Join(dir, historyFile)); err != nil {
		return h, err
	}
	if h.neg, err = os.ReadFile(filepath.Join(dir, negativeFile)); err != nil {
		return h, err
	}
	// Parse once so a damaged file fails set-up, not the measured phase.
	for _, data := range [][]byte{h.pos, h.neg} {
		if _, err := trace.Unmarshal(data); err != nil {
			return h, err
		}
	}
	return h, nil
}

func runValidateHistory(cfg Config) (*Outcome, error) {
	h, setupS, err := medianSetup(setupReps, func() (histories, error) { return loadHistories(cfg.DataDir) },
		func(histories) {})
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.E2E["setup_s"] = setupS

	var (
		log           = &spanLog{t0: time.Now()}
		txns          int
		passP50       []float64 // per untraced pass, across the recorded history's events
		passP99       []float64
		traced, plain []float64
		firstPos      verdict
		bad           []string
		start         = time.Now()
	)
	for p := 0; ; p++ {
		var sl *spanLog
		if cfg.Traced && p%2 == 1 {
			sl = log
			sl.txn++
		}
		t0 := time.Now()
		root := sl.start(-1, "pass")
		pos, err := checkHistory(h.pos, sl, root)
		var neg verdict
		if err == nil {
			neg, err = checkHistory(h.neg, sl, root)
		}
		sl.finish(root)
		el := float64(time.Since(t0))
		o.Attempted++
		if err != nil {
			o.Failed++
			cfg.logf("validation pass failed: %v", err)
		} else {
			if p == 0 {
				firstPos = pos
			}
			bad = append(bad, checkVerdicts(pos, neg)...)
			txns = pos.txns + neg.txns
			if sl != nil {
				traced = append(traced, el)
			} else {
				plain = append(plain, el)
				passP50 = append(passP50, quantile(pos.eventNs, 0.50))
				passP99 = append(passP99, quantile(pos.eventNs, 0.99))
			}
		}
		if time.Since(start) >= cfg.Duration && (!cfg.Traced || p >= 1) {
			break
		}
	}
	for i, b := range bad {
		o.Correct = false
		if i < 5 {
			cfg.logf("wrong verdict: %s", b)
		}
	}
	// Throughput from the median pass. Latency is the online certifier's
	// time to admit one event of the recorded history (its unit of work as
	// a certifier tailing a live system); each pass gives its 50th and
	// 99th percentile over the history's events, and the run reports the
	// median over its passes.
	o.E2E["txn_per_s"] = ratio(float64(txns), median(append([]float64(nil), plain...))/1e9)
	o.E2E["txn_p50_ms"] = median(passP50) / 1e6
	o.E2E["txn_p99_ms"] = median(passP99) / 1e6
	o.Notes = append(o.Notes, fmt.Sprintf("passes=%d (untraced %d) transactions per pass=%d", len(plain)+len(traced), len(plain), txns))
	o.E2E["peak_mem_mb"] = peakRSSMB(0)
	o.Layer["sched.objects"] = float64(firstPos.objects)
	o.Layer["sched.dep_edges"] = float64(firstPos.depEdges)
	o.Layer["sched.semantic_conflicts"] = float64(firstPos.semantic)
	o.Layer["sched.conventional_conflicts"] = float64(firstPos.conflicts)
	if cfg.Traced {
		fillSpanMetrics(cfg, o, []*spanLog{log}, mean(traced), mean(plain))
		sum := summarize([]*spanLog{log})
		// Per-pass phase times: each phase runs once per history, twice
		// per pass.
		for _, name := range []string{"trace.parse", "trace.to_system", "txn.extend", "sched.analyze", "sched.check", "sched.conventional", "sched.online"} {
			o.Layer[name+"_ms"] = 2 * sum.meanNs[name] / 1e6
		}
		o.Layer["validate.pass_ms"] = sum.meanNs["pass"] / 1e6
	}
	return o, nil
}

// runGenHistory records a fresh two-client open-nested encyclopedia
// history from a seed, on the enc-inproc smoke-test sizes, and writes it as
// trace JSON for validate-history.
func runGenHistory(args []string) int {
	fs := flag.NewFlagSet("gen-history", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "input seed")
	txns := fs.Int("txns", 10, "transactions per client")
	out := fs.String("out", "", "output file (default: standard output)")
	_ = fs.Parse(args)
	data, err := genHistory(*seed, *txns)
	if err == nil {
		if *out == "" {
			_, err = os.Stdout.Write(data)
		} else {
			err = os.WriteFile(*out, data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "oobench gen-history: %v\n", err)
		return 1
	}
	return 0
}

func genHistory(seed int64, txnsPerClient int) ([]byte, error) {
	sz := encSizesFor(true)
	cfg := Config{Seed: seed, Protocol: "open-nested"}
	f, err := setupEnc(cfg, sz, true)
	if err != nil {
		return nil, err
	}
	defer f.db.Close()
	var wg sync.WaitGroup
	errs := make([]error, encClients)
	for c := 0; c < encClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := &encGen{rng: rand.New(rand.NewSource(seed*1000 + int64(c) + 1)), c: c, sz: sz}
			for i := 0; i < txnsPerClient; i++ {
				if _, err := f.runEncTxn(c, g.next(0, i), nil); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	data, err := f.db.Trace().Marshal()
	if err != nil {
		return nil, err
	}
	return append(bytes.TrimSpace(data), '\n'), nil
}
