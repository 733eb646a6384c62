package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
)

// bankSizes is the make-up of the banking inputs.
type bankSizes struct {
	Accounts  int
	Balance   int64
	AuditPct  int // share of transactions that are whole-bank audits
	MaxAmount int64
	RoundTxns int // transactions per client per round
}

func bankSizesFor(tiny bool) bankSizes {
	if tiny {
		return bankSizes{Accounts: 8, Balance: 1_000_000, AuditPct: 5, MaxAmount: 100, RoundTxns: 8}
	}
	// 64 accounts fit the pool many times over; a 5% audit share puts the
	// 99th percentile well inside the audits.
	return bankSizes{Accounts: 64, Balance: 1_000_000, AuditPct: 5, MaxAmount: 100, RoundTxns: 40}
}

const bankClients = 2

func acct(i int) string { return "Acct" + strconv.Itoa(i) }

// bankTxn is one generated transaction: a transfer, or an audit when
// audit is set.
type bankTxn struct {
	audit    bool
	from, to int
	amount   int64
}

type bankGen struct {
	rng *rand.Rand
	sz  bankSizes
}

func (g *bankGen) next() bankTxn {
	if g.rng.Intn(100) < g.sz.AuditPct {
		return bankTxn{audit: true}
	}
	from := g.rng.Intn(g.sz.Accounts)
	to := (from + 1 + g.rng.Intn(g.sz.Accounts-1)) % g.sz.Accounts
	return bankTxn{from: from, to: to, amount: 1 + g.rng.Int63n(g.sz.MaxAmount)}
}

// bankClient is one closed-loop client: its own connection pool of one
// and its ledger of acknowledged transfers.
type bankClient struct {
	cl     *client.Client
	reg    *obs.Registry
	sz     bankSizes
	ledger map[int]int64 // net change per account, acknowledged transfers only
}

func dialBank(addr string, fallbacks []string, sz bankSizes, seed int64) (*bankClient, error) {
	reg := obs.New()
	cl, err := client.Dial(addr, client.Options{PoolSize: 1, Obs: reg, Seed: seed, Fallbacks: fallbacks})
	if err != nil {
		return nil, err
	}
	return &bankClient{cl: cl, reg: reg, sz: sz, ledger: map[int]int64{}}, nil
}

// maxAttempts bounds the retries of one logical transaction; it is wide
// enough to ride out a leader election on the replicated cluster.
const maxAttempts = 400

// run executes one logical transaction through client.RunWithRetry, which
// retries typed transient refusals with jittered backoff and follows
// not-leader redirects, and returns the attempts it took. Begin happens
// inside RunWithRetry, so a retried attempt's client.begin span also
// covers the backoff before it.
func (b *bankClient) run(t bankTxn, sl *spanLog) (int, error) {
	root := sl.start(-1, "txn")
	defer sl.finish(root)
	var (
		attempts   int
		sum        int64
		att        int32 = -1
		mark             = time.Now() // end of the previous attempt
		commitFrom time.Time
	)
	endAttempt := func() {
		now := time.Now()
		if !commitFrom.IsZero() {
			sl.add(att, "client.commit", commitFrom, now)
			commitFrom = time.Time{}
		}
		sl.finishAt(att, now)
		mark = now
	}
	policy := client.RetryPolicy{MaxAttempts: maxAttempts, OnRetry: func(int, error) { endAttempt() }}
	err := b.cl.RunWithRetry(policy, func(tx *client.Tx) error {
		attempts++
		att = sl.add(root, "attempt", mark, time.Time{})
		sl.add(att, "client.begin", mark, time.Now())
		var err error
		if t.audit {
			sum, err = audit(tx, b.sz.Accounts, sl, att, nil)
		} else {
			s := sl.start(att, "client.invoke")
			_, err = tx.Invoke("account", acct(t.from), "debit", strconv.FormatInt(t.amount, 10))
			sl.finish(s)
			if err == nil {
				s = sl.start(att, "client.invoke")
				_, err = tx.Invoke("account", acct(t.to), "credit", strconv.FormatInt(t.amount, 10))
				sl.finish(s)
			}
		}
		if err == nil {
			commitFrom = time.Now()
		}
		return err
	})
	endAttempt()
	if err != nil {
		return attempts, err
	}
	if t.audit {
		return attempts, auditError(sum, b.sz)
	}
	b.ledger[t.from] -= t.amount
	b.ledger[t.to] += t.amount
	return attempts, nil
}

// auditError checks a committed audit: transfers move money between
// accounts, so every audit must see accounts x initial balance.
func auditError(sum int64, sz bankSizes) error {
	if want := int64(sz.Accounts) * sz.Balance; sum != want {
		return errMismatch{fmt.Sprintf("audit sums to %d, want %d", sum, want)}
	}
	return nil
}

// audit reads every balance inside tx and returns their sum; balances, if
// non-nil, receives each one.
func audit(tx *client.Tx, accounts int, sl *spanLog, parent int32, balances []int64) (int64, error) {
	var sum int64
	for i := 0; i < accounts; i++ {
		s := sl.start(parent, "client.invoke")
		res, err := tx.Invoke("account", acct(i), "balance")
		sl.finish(s)
		if err != nil {
			return 0, err
		}
		v, err := strconv.ParseInt(res, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("balance of %s: %w", acct(i), err)
		}
		sum += v
		if balances != nil {
			balances[i] = v
		}
	}
	return sum, nil
}

// readBalances reads every balance in one committed transaction.
func readBalances(cl *client.Client, accounts int) ([]int64, error) {
	bal := make([]int64, accounts)
	err := cl.RunWithRetry(client.RetryPolicy{}, func(tx *client.Tx) error {
		_, err := audit(tx, accounts, nil, -1, bal)
		return err
	})
	return bal, err
}

// checkLedger compares final balances with the initial balance plus the
// acknowledged transfers of every client.
func checkLedger(bal []int64, initial int64, ledgers []map[int]int64) []string {
	want := make([]int64, len(bal))
	for i := range want {
		want[i] = initial
	}
	for _, l := range ledgers {
		for a, d := range l {
			want[a] += d
		}
	}
	var bad []string
	for i := range bal {
		if bal[i] != want[i] {
			bad = append(bad, fmt.Sprintf("%s = %d, ledger says %d", acct(i), bal[i], want[i]))
		}
	}
	return bad
}

// firstCommit commits one read.
func firstCommit(cl *client.Client) error {
	return cl.RunWithRetry(client.RetryPolicy{}, func(tx *client.Tx) error {
		_, err := tx.Invoke("account", acct(0), "balance")
		return err
	})
}

// bankServer is the oodbd deployment a banking workload runs against:
// one durable node, or a three-node replicated cluster.
type bankServer struct {
	nodes  []*proc
	dirs   []string
	root   string
	leader *proc
}

func (s *bankServer) kill() {
	for _, n := range s.nodes {
		n.kill()
	}
	_ = os.RemoveAll(s.root) // scratch space only
}

func oodbdArgs(sz bankSizes, dir string) []string {
	return []string{
		"-install", "banking",
		"-accounts", strconv.Itoa(sz.Accounts),
		"-balance", strconv.FormatInt(sz.Balance, 10),
		"-durability", "group-commit",
		"-waldir", dir,
		"-metrics-addr", "127.0.0.1:0",
	}
}

// startSingle starts one durable oodbd and waits until it has committed a
// transaction.
func startSingle(cfg Config, sz bankSizes) (*bankServer, error) {
	root, err := os.MkdirTemp(cfg.WorkDir, "bank-wire-")
	if err != nil {
		return nil, err
	}
	s := &bankServer{root: root, dirs: []string{filepath.Join(root, "wal")}}
	p, err := startOodbd(cfg.BinDir, filepath.Join(cfg.WorkDir, "oodbd.log"), "oodbd", append(oodbdArgs(sz, s.dirs[0]), "-addr", "127.0.0.1:0")...)
	if err != nil {
		s.kill()
		return nil, err
	}
	s.nodes, s.leader = []*proc{p}, p
	if err := s.ready(); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// startRepl3 starts a three-node replicated cluster and waits until a
// leader has been elected, installed the schema and committed a read. The
// nodes must know each other's addresses before they start, so the ports
// are reserved and released first; another process can take one in
// between, and then the cluster is started again on fresh ports.
func startRepl3(cfg Config, sz bankSizes) (*bankServer, error) {
	for try := 1; ; try++ {
		s, err := startRepl3Once(cfg, sz)
		if err == nil || try == 3 || !strings.Contains(err.Error(), "address already in use") {
			return s, err
		}
		cfg.logf("cluster start lost a port race, retrying: %v", err)
	}
}

func startRepl3Once(cfg Config, sz bankSizes) (*bankServer, error) {
	root, err := os.MkdirTemp(cfg.WorkDir, "bank-repl3-")
	if err != nil {
		return nil, err
	}
	s := &bankServer{root: root}
	ports, err := freePorts(6)
	if err != nil {
		s.kill()
		return nil, err
	}
	for i := 0; i < 3; i++ {
		var peers []string
		for j := 0; j < 3; j++ {
			if j != i {
				peers = append(peers, fmt.Sprintf("n%d=127.0.0.1:%d", j, ports[3+j]))
			}
		}
		dir := filepath.Join(root, fmt.Sprintf("n%d", i))
		s.dirs = append(s.dirs, dir)
		p, err := startOodbd(cfg.BinDir, filepath.Join(cfg.WorkDir, fmt.Sprintf("oodbd-n%d.log", i)), fmt.Sprintf("n%d", i), append(oodbdArgs(sz, dir),
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-repl-node", fmt.Sprintf("n%d", i),
			"-repl-addr", fmt.Sprintf("127.0.0.1:%d", ports[3+i]),
			"-repl-peers", strings.Join(peers, ","))...)
		if err != nil {
			s.kill()
			return nil, err
		}
		s.nodes = append(s.nodes, p)
	}
	deadline := time.Now().Add(20 * time.Second)
	for s.leader == nil {
		s.refreshLeader()
		if time.Now().After(deadline) {
			s.kill()
			return nil, errors.New("no leader elected within 20s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.ready(); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// ready waits for every node's addresses, then commits one read at the
// leader.
func (s *bankServer) ready() error {
	for _, n := range s.nodes {
		if err := n.waitReady(20 * time.Second); err != nil {
			return err
		}
	}
	addr, _, _ := s.leader.state()
	cl, err := client.Dial(addr, client.Options{PoolSize: 1})
	if err != nil {
		return err
	}
	defer cl.Close()
	deadline := time.Now().Add(20 * time.Second)
	for {
		err := firstCommit(cl)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leader never committed: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// bankRun is what the measured phase of a banking workload produced.
type bankRun struct {
	loop      loopStats
	clients   []*bankClient
	before    serverSnap // the leader's /metrics around the measured phase
	after     serverSnap
	walBefore int64 // the leader's WAL bytes around the measured phase
	walAfter  int64
	// transitions counts role changes on every node during the phase.
	transitions int64
}

// driveBank runs the two closed-loop clients against the leader.
func driveBank(cfg Config, sz bankSizes, s *bankServer, lagSampler func()) (*bankRun, error) {
	addr, _, _ := s.leader.state()
	run := &bankRun{}
	gens := make([]*bankGen, bankClients)
	for c := 0; c < bankClients; c++ {
		bc, err := dialBank(addr, s.fallbacks(), sz, cfg.Seed*1000+int64(c)+1)
		if err != nil {
			return nil, err
		}
		defer bc.cl.Close()
		run.clients = append(run.clients, bc)
		gens[c] = &bankGen{rng: rand.New(rand.NewSource(cfg.Seed*7919 + int64(c) + 1)), sz: sz}
	}
	before, err := s.snapshots()
	if err != nil {
		return nil, err
	}
	run.walBefore = dirBytes(s.dirOf(s.leader))
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if lagSampler != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(20 * time.Millisecond):
					lagSampler()
				}
			}
		}()
	}
	run.loop = closedLoop(bankClients, sz.RoundTxns, cfg.Duration, cfg.Traced, func(c, r, i int, sl *spanLog) (int, error) {
		return run.clients[c].run(gens[c].next(), sl)
	})
	close(stop)
	sampler.Wait()
	s.refreshLeader()
	after, err := s.snapshots()
	if err != nil {
		return nil, err
	}
	run.walAfter = dirBytes(s.dirOf(s.leader))
	for i, n := range s.nodes {
		run.transitions += after[i].Transitions - before[i].Transitions
		if n == s.leader {
			run.before, run.after = before[i], after[i]
		}
	}
	return run, nil
}

// snapshots reads every node's /metrics.
func (s *bankServer) snapshots() ([]serverSnap, error) {
	var out []serverSnap
	for _, n := range s.nodes {
		snap, err := n.snapshot()
		if err != nil {
			return nil, fmt.Errorf("%s /metrics: %w", n.name, err)
		}
		out = append(out, snap)
	}
	return out, nil
}

// refreshLeader follows a leader change announced during the run.
func (s *bankServer) refreshLeader() {
	for _, n := range s.nodes {
		if _, _, role := n.state(); role == "leader" {
			s.leader = n
		}
	}
}

// fallbacks lists the client addresses of the nodes other than the leader.
func (s *bankServer) fallbacks() []string {
	var out []string
	for _, n := range s.nodes {
		if n != s.leader {
			addr, _, _ := n.state()
			out = append(out, addr)
		}
	}
	return out
}

func (s *bankServer) dirOf(p *proc) string {
	for i, n := range s.nodes {
		if n == p {
			return s.dirs[i]
		}
	}
	return ""
}

func (run *bankRun) ledgers() []map[int]int64 {
	var out []map[int]int64
	for _, c := range run.clients {
		out = append(out, c.ledger)
	}
	return out
}

// report fills the measured phase's end-to-end and per-layer figures.
func (run *bankRun) report(cfg Config, o *Outcome) {
	run.loop.report(cfg, o)
	n := float64(run.loop.committed)
	a, b := run.before, run.after
	var trips int64
	for _, c := range run.clients {
		if v, ok := c.reg.Snapshot()["client.roundtrips"].(int64); ok {
			trips += v
		}
	}
	o.Layer["client.roundtrips_per_txn"] = ratio(float64(trips), n)
	o.Layer["server.invoke_us"] = meanDelta(a.Invoke, b.Invoke) / 1e3
	o.Layer["server.commit_us"] = meanDelta(a.Commit, b.Commit) / 1e3
	o.Layer["engine.commit_us"] = meanDelta(a.TxnCommit, b.TxnCommit) / 1e3
	if o.Layer["client.invoke_us"] > 0 {
		o.Layer["wire.invoke_overhead_us"] = o.Layer["client.invoke_us"] - o.Layer["server.invoke_us"]
	}
	o.Layer["wal.fsyncs_per_txn"] = ratio(float64(b.Fsync.Count-a.Fsync.Count), n)
	o.Layer["wal.fsync_us"] = meanDelta(a.Fsync, b.Fsync) / 1e3
	o.Layer["wal.batch_records_mean"] = meanDelta(a.Batch, b.Batch)
	o.Layer["wal.bytes_per_txn"] = ratio(float64(run.walAfter-run.walBefore), n)
	o.Layer["repl.transitions"] = float64(run.transitions)
	fillEngineMetrics(o, a.engineCounters, b.engineCounters, n)
}

func logBad(cfg Config, o *Outcome, what string, bad []string) {
	for i, b := range bad {
		o.Correct = false
		if i < 5 {
			cfg.logf("%s: %s", what, b)
		}
	}
}

// runBankWire: two connections against one durable oodbd, then a SIGKILL
// and a restart with -recover, after which the ledger is checked.
func runBankWire(cfg Config) (*Outcome, error) {
	sz := bankSizesFor(cfg.Tiny)
	s, setupS, err := medianSetup(setupReps, func() (*bankServer, error) { return startSingle(cfg, sz) },
		func(s *bankServer) { s.kill() })
	if err != nil {
		return nil, err
	}
	defer s.kill()
	o := newOutcome()
	o.E2E["setup_s"] = setupS
	run, err := driveBank(cfg, sz, s, nil)
	if err != nil {
		return nil, err
	}
	run.report(cfg, o)
	peak := s.leader.peakMB()

	// Crash and restart over the same WAL directory.
	s.leader.kill()
	t0 := time.Now()
	p, err := startOodbd(cfg.BinDir, filepath.Join(cfg.WorkDir, "oodbd-recovered.log"), "oodbd-recovered", append(oodbdArgs(sz, s.dirs[0]), "-addr", "127.0.0.1:0", "-recover")...)
	if err != nil {
		return nil, err
	}
	s.nodes, s.leader = []*proc{p}, p
	if err := s.ready(); err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	o.Layer["recovery.restart_ms"] = float64(time.Since(t0)) / 1e6
	events, err := p.getText("/events?n=100000")
	if err != nil {
		return nil, err
	}
	phases, redone := recoveryPhases(events)
	o.Layer["recovery.analysis_ms"] = float64(phases["analysis"]) / 1e6
	o.Layer["recovery.redo_ms"] = float64(phases["redo"]) / 1e6
	o.Layer["recovery.undo_ms"] = float64(phases["undo"]) / 1e6
	o.Layer["recovery.redone"] = float64(redone)

	addr, _, _ := p.state()
	cl, err := client.Dial(addr, client.Options{PoolSize: 1})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	bal, err := readBalances(cl, sz.Accounts)
	if err != nil {
		return nil, fmt.Errorf("read balances after restart: %w", err)
	}
	logBad(cfg, o, "after restart", checkLedger(bal, sz.Balance, run.ledgers()))
	o.E2E["peak_mem_mb"] = max(peak, p.peakMB())
	return o, nil
}

// runBankRepl3: the same traffic against a three-node replicated cluster,
// clients at the leader; the ledger is checked live and the three logs are
// compared with waldump -compare after a drain shutdown.
func runBankRepl3(cfg Config) (*Outcome, error) {
	sz := bankSizesFor(cfg.Tiny)
	s, setupS, err := medianSetup(setupReps, func() (*bankServer, error) { return startRepl3(cfg, sz) },
		func(s *bankServer) { s.kill() })
	if err != nil {
		return nil, err
	}
	defer s.kill()
	o := newOutcome()
	o.E2E["setup_s"] = setupS

	// Follower lag: how many log entries a follower trails the leader's
	// last LSN, sampled from both nodes' /healthz during the phase.
	type healthz struct {
		Repl struct {
			LastLSN int64 `json:"last_lsn"`
		} `json:"repl"`
	}
	var lagMax int64
	sample := func() {
		var lead healthz
		if s.leader.getJSON("/healthz", &lead) != nil {
			return
		}
		for _, n := range s.nodes {
			var h healthz
			if n != s.leader && n.getJSON("/healthz", &h) == nil {
				lagMax = max(lagMax, lead.Repl.LastLSN-h.Repl.LastLSN)
			}
		}
	}
	run, err := driveBank(cfg, sz, s, sample)
	if err != nil {
		return nil, err
	}
	run.report(cfg, o)
	o.Layer["repl.lag_entries_max"] = float64(lagMax)

	addr, _, _ := s.leader.state()
	cl, err := client.Dial(addr, client.Options{PoolSize: 1, Fallbacks: s.fallbacks()})
	if err != nil {
		return nil, err
	}
	bal, err := readBalances(cl, sz.Accounts)
	cl.Close()
	if err != nil {
		return nil, fmt.Errorf("read balances: %w", err)
	}
	logBad(cfg, o, "ledger", checkLedger(bal, sz.Balance, run.ledgers()))
	var peak float64
	for _, n := range s.nodes {
		peak += n.peakMB()
	}
	o.E2E["peak_mem_mb"] = peak

	for _, n := range s.nodes {
		n.stop(10 * time.Second)
	}
	lead := s.dirOf(s.leader)
	for _, d := range s.dirs {
		if d == lead {
			continue
		}
		if msg, ok := compareLogs(cfg.BinDir, lead, d); !ok {
			logBad(cfg, o, "logs diverge", []string{msg})
		}
	}
	return o, nil
}

// compareLogs runs waldump -compare on two WAL directories: they must agree
// on every LSN they share.
func compareLogs(binDir, a, b string) (string, bool) {
	out, err := exec.Command(filepath.Join(binDir, "waldump"), "-compare", a, b).CombinedOutput()
	return strings.TrimSpace(string(out)), err == nil
}
