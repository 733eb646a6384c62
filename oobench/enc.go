package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/txn"
	"repro/internal/workload"
)

// encSizes is the make-up of the enc-inproc inputs.
type encSizes struct {
	Keys       int // key space; client c owns the keys i with i%2 == c
	PreloadPct int // share of keys present before the measured phase
	Fanout     int // B+ tree node capacity
	Spine      int // linked-list spine page capacity
	OpsPerTxn  int
	RoundTxns  int // transactions per client per round
}

func encSizesFor(tiny bool) encSizes {
	if tiny {
		return encSizes{Keys: 64, PreloadPct: 75, Fanout: 8, Spine: 8, OpsPerTxn: 4, RoundTxns: 8}
	}
	// 1536 preloaded item pages (one per key) against the pool's default
	// 1024 frames; fanout 100 packs both clients' interleaved keys into
	// the same ~30 leaves.
	return encSizes{Keys: 2048, PreloadPct: 75, Fanout: 100, Spine: 50, OpsPerTxn: 4, RoundTxns: 64}
}

const encClients = 2

var protocols = map[string]core.ProtocolKind{
	"open-nested":   core.ProtocolOpenNested,
	"2pl-page":      core.Protocol2PLPage,
	"2pl-object":    core.Protocol2PLObject,
	"closed-nested": core.ProtocolClosedNested,
}

func encKey(i int) string { return fmt.Sprintf("k%05d", i) }

// encFixture is an engine with the encyclopedia installed and preloaded,
// plus each client's model of the keys it owns.
type encFixture struct {
	db     *core.DB
	oid    txn.OID
	models [encClients]map[string]string
}

// setupEnc opens the engine, installs the encyclopedia and preloads it;
// audit turns on the engine's audit trace (the history validate-history
// checks).
func setupEnc(cfg Config, sz encSizes, audit bool) (*encFixture, error) {
	kind, ok := protocols[cfg.Protocol]
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q", cfg.Protocol)
	}
	// Engine defaults as oodbd ships them: audit trace off, spans and
	// metrics on, no page I/O delay, default pool.
	db := core.Open(core.Options{Protocol: kind, DisableTrace: !audit, LockTimeout: 10 * time.Second})
	oid, err := workload.InstallEncyclopedia(db, sz.Fanout, sz.Spine)
	if err != nil {
		db.Close()
		return nil, err
	}
	f := &encFixture{db: db, oid: oid}
	for c := range f.models {
		f.models[c] = map[string]string{}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var batch []string
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := db.RunWithRetry(core.RetryPolicy{}, func(t *core.Txn) error {
			for _, k := range batch {
				if _, err := t.Exec(oid, "insert", k, "pre"); err != nil {
					return err
				}
			}
			return nil
		})
		batch = batch[:0]
		return err
	}
	for i := 0; i < sz.Keys; i++ {
		if rng.Intn(100) >= sz.PreloadPct {
			continue
		}
		f.models[i%encClients][encKey(i)] = "pre"
		if batch = append(batch, encKey(i)); len(batch) == 32 {
			if err := flush(); err != nil {
				db.Close()
				return nil, fmt.Errorf("preload: %w", err)
			}
		}
	}
	if err := flush(); err != nil {
		db.Close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	return f, nil
}

type encOp struct {
	method string
	key    string
	text   string
}

// encGen draws client c's transactions: searches over every key, inserts
// and deletes over the keys c owns.
type encGen struct {
	rng *rand.Rand
	c   int
	sz  encSizes
}

func (g *encGen) next(r, i int) []encOp {
	ops := make([]encOp, g.sz.OpsPerTxn)
	for j := range ops {
		roll := g.rng.Intn(100)
		own := encKey(encClients*g.rng.Intn(g.sz.Keys/encClients) + g.c)
		switch {
		case roll < 50:
			ops[j] = encOp{method: "search", key: encKey(g.rng.Intn(g.sz.Keys))}
		case roll < 80:
			ops[j] = encOp{method: "insert", key: own, text: fmt.Sprintf("c%d-r%d-t%d-o%d", g.c, r, i, j)}
		default:
			ops[j] = encOp{method: "delete", key: own}
		}
	}
	return ops
}

// expectEnc is the result the model predicts for one operation, and
// whether it can predict it: a search of another client's key cannot be
// predicted, only its form checked.
func expectEnc(op encOp, owned bool, cur string, present bool) (string, bool) {
	switch op.method {
	case "insert", "delete":
		if !present {
			if op.method == "insert" {
				return "new", true
			}
			return "miss", true
		}
		return "old|" + cur, true
	}
	if !owned {
		return "", false
	}
	return cur, true
}

// plausibleForeign reports whether a search result for a key another
// client owns has a form that client or the preload could have written.
func plausibleForeign(res string, owner int) bool {
	return res == "" || res == "pre" || strings.HasPrefix(res, fmt.Sprintf("c%d-", owner))
}

// runEncTxn runs one logical transaction through core.RunWithRetry and
// checks every result of the committed attempt against the model.
func (f *encFixture) runEncTxn(c int, ops []encOp, sl *spanLog) (int, error) {
	model := f.models[c]
	root := sl.start(-1, "txn")
	defer sl.finish(root)
	attempts := 0
	var overlay map[string]*string
	var mismatches []string
	var commit int32 = -1
	err := f.db.RunWithRetry(core.RetryPolicy{}, func(t *core.Txn) error {
		attempts++
		att := sl.start(root, "attempt")
		defer sl.finish(att)
		overlay = map[string]*string{}
		mismatches = mismatches[:0]
		for _, op := range ops {
			owner := keyOwner(op.key)
			cur, present := model[op.key]
			if v, ok := overlay[op.key]; ok {
				cur, present = "", v != nil
				if v != nil {
					cur = *v
				}
			}
			var res string
			var err error
			s := sl.start(att, "core.exec_"+op.method)
			if op.method == "insert" {
				res, err = t.Exec(f.oid, op.method, op.key, op.text)
			} else {
				res, err = t.Exec(f.oid, op.method, op.key)
			}
			sl.finish(s)
			if err != nil {
				return err
			}
			if want, ok := expectEnc(op, owner == c, cur, present); ok && res != want {
				mismatches = append(mismatches, fmt.Sprintf("client %d %s(%s) = %q, model says %q", c, op.method, op.key, res, want))
			} else if !ok && !plausibleForeign(res, owner) {
				mismatches = append(mismatches, fmt.Sprintf("client %d search(%s) = %q, not a text client %d writes", c, op.key, res, owner))
			}
			switch op.method {
			case "insert":
				text := op.text
				overlay[op.key] = &text
			case "delete":
				overlay[op.key] = nil
			}
		}
		commit = sl.start(root, "core.commit")
		return nil
	})
	sl.finish(commit)
	if err != nil {
		return attempts, err
	}
	for k, v := range overlay {
		if v == nil {
			delete(model, k)
		} else {
			model[k] = *v
		}
	}
	if len(mismatches) > 0 {
		return attempts, errMismatch(mismatches)
	}
	return attempts, nil
}

type errMismatch []string

func (e errMismatch) Error() string { return "wrong result: " + strings.Join(e, "; ") }

func keyOwner(key string) int {
	i, _ := strconv.Atoi(key[1:])
	return i % encClients
}

// verifyEnc checks Figure 2's two access paths at the end of the run: the
// list's readSeq and a tree search of every key must both equal the union
// of the clients' models.
func (f *encFixture) verifyEnc(keys int) []string {
	want := map[string]string{}
	for _, m := range f.models {
		for k, v := range m {
			want[k] = v
		}
	}
	var seq string
	var got []string
	err := f.db.RunWithRetry(core.RetryPolicy{}, func(t *core.Txn) error {
		var err error
		seq, err = t.Exec(f.oid, "readSeq")
		if err != nil {
			return err
		}
		got = got[:0]
		for i := 0; i < keys; i++ {
			res, err := t.Exec(f.oid, "search", encKey(i))
			if err != nil {
				return err
			}
			got = append(got, res)
		}
		return nil
	})
	if err != nil {
		return []string{"final read: " + err.Error()}
	}
	return checkEncFinal(want, seq, got)
}

// checkEncFinal compares the list path (readSeq, "k=t;k=t") and the tree
// path (search of key i at got[i]) with the model union want.
func checkEncFinal(want map[string]string, seq string, got []string) []string {
	var bad []string
	listed := map[string]string{}
	if seq != "" {
		for _, pair := range strings.Split(seq, ";") {
			k, v, _ := strings.Cut(pair, "=")
			if _, dup := listed[k]; dup {
				bad = append(bad, "readSeq lists "+k+" twice")
			}
			listed[k] = v
		}
	}
	keys := make([]string, 0, len(want)+len(listed))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range listed {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if w, l := want[k], listed[k]; w != l {
			bad = append(bad, fmt.Sprintf("readSeq %s = %q, models say %q", k, l, w))
		}
	}
	for i, res := range got {
		if w := want[encKey(i)]; res != w {
			bad = append(bad, fmt.Sprintf("search %s = %q, models say %q", encKey(i), res, w))
		}
	}
	return bad
}

func runEncInproc(cfg Config) (*Outcome, error) {
	sz := encSizesFor(cfg.Tiny)
	f, setupS, err := medianSetup(setupReps, func() (*encFixture, error) { return setupEnc(cfg, sz, false) },
		func(f *encFixture) { f.db.Close() })
	if err != nil {
		return nil, err
	}
	defer f.db.Close()
	o := newOutcome()
	o.E2E["setup_s"] = setupS

	before := countersOf(f.db)
	gens := make([]*encGen, encClients)
	for c := range gens {
		gens[c] = &encGen{rng: rand.New(rand.NewSource(cfg.Seed*1000 + int64(c) + 1)), c: c, sz: sz}
	}
	ls := closedLoop(encClients, sz.RoundTxns, cfg.Duration, cfg.Traced, func(c, r, i int, sl *spanLog) (int, error) {
		return f.runEncTxn(c, gens[c].next(r, i), sl)
	})
	after := countersOf(f.db)
	ls.report(cfg, o)
	o.E2E["peak_mem_mb"] = peakRSSMB(0)
	fillEngineMetrics(o, before, after, float64(ls.committed))

	if bad := f.verifyEnc(sz.Keys); len(bad) > 0 {
		o.Correct = false
		for i, b := range bad {
			if i == 5 {
				break
			}
			cfg.logf("final check: %s", b)
		}
	}
	return o, nil
}

// engineCounters are the engine's own counters, in the shape of its obs
// snapshot (and of oodbd's /metrics).
type engineCounters struct {
	Engine core.Stats       `json:"engine"`
	Lock   cc.Stats         `json:"lock"`
	Pool   map[string]int64 `json:"pool"`
}

func countersOf(db *core.DB) engineCounters {
	pool, _ := db.Obs().Snapshot()["pool"].(map[string]int64)
	return engineCounters{Engine: db.Stats(), Lock: db.LockStats(), Pool: pool}
}

// fillEngineMetrics fills the core, cc and pool figures from the counters'
// growth over txns committed transactions.
func fillEngineMetrics(o *Outcome, a, b engineCounters, txns float64) {
	o.Layer["core.actions_per_txn"] = ratio(float64(b.Engine.Actions-a.Engine.Actions), txns)
	o.Layer["core.page_ops_per_txn"] = ratio(float64(b.Engine.PageReads+b.Engine.PageWrites-a.Engine.PageReads-a.Engine.PageWrites), txns)
	acq, blocked := float64(b.Lock.Acquires-a.Lock.Acquires), float64(b.Lock.Blocked-a.Lock.Blocked)
	o.Layer["cc.acquires_per_txn"] = ratio(acq, txns)
	o.Layer["cc.conflict_ratio"] = ratio(blocked, acq)
	o.Layer["cc.wait_us_per_block"] = ratio(float64(b.Lock.WaitTime-a.Lock.WaitTime)/1e3, blocked)
	o.Layer["cc.deadlocks"] = float64(b.Lock.Deadlocks - a.Lock.Deadlocks)
	hits, misses := b.Pool["hits"]-a.Pool["hits"], b.Pool["misses"]-a.Pool["misses"]
	o.Layer["pool.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	o.Layer["pool.evictions_per_txn"] = ratio(float64(b.Pool["evictions"]-a.Pool["evictions"]), txns)
}
