package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one oodbd process started by the benchmark, with the addresses
// and role it announced on its output.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited and been reaped

	mu      sync.Mutex
	addr    string // client (wire) address
	metrics string // observability endpoint host:port
	role    string // last replication role announced
	tail    []string
	log     *os.File
}

// startOodbd starts oodbd with args and returns once it is running; use
// waitReady for its addresses. Everything it prints goes to logPath.
func startOodbd(binDir, logPath, name string, args ...string) (*proc, error) {
	p := &proc{name: name, done: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(binDir, "oodbd"), args...)
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	p.log = log
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start oodbd: %w", err)
	}
	var readers sync.WaitGroup
	readers.Add(2)
	go p.scan(stdout, &readers)
	go p.scan(stderr, &readers)
	go func() {
		readers.Wait()
		_ = p.cmd.Wait() // exit status is judged by the caller's checks
		log.Close()
		close(p.done)
	}()
	return p, nil
}

// scan records the lines oodbd prints that name its addresses and role,
// and keeps the last few for diagnostics.
func (p *proc) scan(r io.Reader, wg *sync.WaitGroup) {
	defer wg.Done()
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		switch {
		case strings.HasPrefix(line, "oodbd: serving ") && strings.Contains(line, " protocol on "):
			_, p.addr, _ = strings.Cut(line, " protocol on ")
		case strings.HasPrefix(line, "oodbd: serving metrics at http://"):
			rest := strings.TrimPrefix(line, "oodbd: serving metrics at http://")
			p.metrics, _, _ = strings.Cut(rest, "/")
		case strings.HasPrefix(line, "oodbd: repl role="):
			f := strings.Fields(strings.TrimPrefix(line, "oodbd: repl role="))
			if len(f) > 0 {
				p.role = f[0]
			}
		}
		fmt.Fprintln(p.log, time.Now().Format("15:04:05.000000"), line)
		if p.tail = append(p.tail, line); len(p.tail) > 20 {
			p.tail = p.tail[1:]
		}
		p.mu.Unlock()
	}
}

func (p *proc) state() (addr, metrics, role string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addr, p.metrics, p.role
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// waitReady waits until the process has announced both addresses.
func (p *proc) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if addr, metrics, _ := p.state(); addr != "" && metrics != "" {
			return nil
		}
		if p.exited() || time.Now().After(deadline) {
			p.mu.Lock()
			tail := strings.Join(p.tail, "\n  ")
			p.mu.Unlock()
			return fmt.Errorf("%s not ready (exited=%v); last output:\n  %s", p.name, p.exited(), tail)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits until the process is reaped.
func (p *proc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-p.done
}

// stop asks for the drain shutdown and waits for it, killing the process
// if it has not exited within timeout.
func (p *proc) stop(timeout time.Duration) {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(timeout):
		p.kill()
	}
}

// peakMB is the process's peak resident memory so far.
func (p *proc) peakMB() float64 { return peakRSSMB(p.cmd.Process.Pid) }

var httpClient = &http.Client{Timeout: 5 * time.Second}

// getText fetches path from the process's observability endpoint.
func (p *proc) getText(path string) (string, error) {
	_, metrics, _ := p.state()
	resp, err := httpClient.Get("http://" + metrics + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// getJSON fetches path from the process's observability endpoint and
// decodes it into v.
func (p *proc) getJSON(path string, v any) error {
	body, err := p.getText(path)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(body), v)
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]int, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// dirBytes sums the sizes of the WAL segment files in dir.
func dirBytes(dir string) int64 {
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	var n int64
	for _, s := range segs {
		if st, err := os.Stat(s); err == nil {
			n += st.Size()
		}
	}
	return n
}

// hist is the JSON snapshot of an obs histogram.
type hist struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
}

// serverSnap is the part of oodbd's /metrics snapshot the benchmark reads.
type serverSnap struct {
	Invoke      hist  `json:"server.msg.invoke_ns"`
	Commit      hist  `json:"server.msg.commit_ns"`
	TxnCommit   hist  `json:"txn.commit_ns"`
	Fsync       hist  `json:"wal.fsync_ns"`
	Batch       hist  `json:"wal.batch_records"`
	Transitions int64 `json:"repl.transitions"`
	engineCounters
}

func (p *proc) snapshot() (serverSnap, error) {
	var s serverSnap
	err := p.getJSON("/metrics", &s)
	return s, err
}

func meanDelta(a, b hist) float64 { return ratio(float64(b.Sum-a.Sum), float64(b.Count-a.Count)) }

// recoveryPhases reads the recovery.phase events from /events: the
// analysis, redo and undo durations and the redo count.
func recoveryPhases(events string) (phases map[string]time.Duration, redone int64) {
	phases = map[string]time.Duration{}
	for _, line := range strings.Split(events, "\n") {
		if !strings.Contains(line, " recovery.phase ") {
			continue
		}
		var obj string
		var dur time.Duration
		var n int64
		for _, f := range strings.Fields(line) {
			switch {
			case strings.HasPrefix(f, "obj="):
				obj = strings.TrimPrefix(f, "obj=")
			case strings.HasPrefix(f, "dur="):
				dur, _ = time.ParseDuration(strings.TrimPrefix(f, "dur="))
			case strings.HasPrefix(f, "n="):
				fmt.Sscanf(strings.TrimPrefix(f, "n="), "%d", &n)
			}
		}
		phases[obj] = dur
		if obj == "redo" {
			redone = n
		}
	}
	return phases, redone
}
