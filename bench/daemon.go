package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
)

// buildDir is where the harness keeps everything it creates: the aarohid
// binary, model files, daemon data dirs and trace files. It is relative to
// the repository root (the parent of this module's directory).
const buildDir = ".bench_build"

// repoRoot is the checkout the benchmark was started from: `go run -C bench`
// leaves the process in the bench directory.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "aarohid", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("bench: cmd/aarohid not found from %s; run from the repository root with `go run -C bench .`", wd)
}

// buildAarohid compiles cmd/aarohid from the checkout's source.
func buildAarohid(root string) (bin string, took time.Duration, err error) {
	bin = filepath.Join(root, buildDir, "aarohid")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/aarohid")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("bench: building aarohid: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// writeModel stores the chains and templates where a daemon can read them.
func writeModel(dir string, m loggenModel) (chainsPath, tplPath string, err error) {
	chainsPath = filepath.Join(dir, "chains.json")
	tplPath = filepath.Join(dir, "templates.json")
	var cb, tb bytes.Buffer
	if err := core.WriteChains(&cb, m.chains); err != nil {
		return "", "", err
	}
	if err := core.WriteTemplates(&tb, m.templates); err != nil {
		return "", "", err
	}
	if err := os.WriteFile(chainsPath, cb.Bytes(), 0o644); err != nil {
		return "", "", err
	}
	return chainsPath, tplPath, os.WriteFile(tplPath, tb.Bytes(), 0o644)
}

// daemon is one running aarohid process.
type daemon struct {
	cmd        *exec.Cmd
	args       []string
	tcpAddr    string
	httpAddr   string
	gossipAddr string
	bootTime   time.Duration // exec → /readyz answered 200

	logMu sync.Mutex
	log   bytes.Buffer // stderr tail, for diagnostics
	done  chan struct{}
}

// liveDaemons is every aarohid this process has started and not yet reaped,
// so that an interrupted run leaves none behind.
var liveDaemons struct {
	sync.Mutex
	set map[*daemon]struct{}
}

func trackDaemon(d *daemon, live bool) {
	liveDaemons.Lock()
	defer liveDaemons.Unlock()
	if liveDaemons.set == nil {
		liveDaemons.set = map[*daemon]struct{}{}
	}
	if live {
		liveDaemons.set[d] = struct{}{}
	} else {
		delete(liveDaemons.set, d)
	}
}

// killLiveDaemons SIGKILLs and reaps whatever is still running.
func killLiveDaemons() {
	liveDaemons.Lock()
	var all []*daemon
	for d := range liveDaemons.set {
		all = append(all, d)
	}
	liveDaemons.Unlock()
	for _, d := range all {
		d.kill()
	}
}

var daemonAddrRe = regexp.MustCompile(` on (127\.0\.0\.1:\d+)`)

// startDaemon execs aarohid and returns once /readyz answers. The daemon
// picks its own loopback ports and reports them on stderr.
func startDaemon(bin string, args ...string) (*daemon, error) {
	wantGossip := false
	for _, a := range args {
		if a == "-gossip-addr" {
			wantGossip = true
		}
	}
	d := &daemon{args: args, done: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = io.Discard
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := startNiced(d.cmd); err != nil {
		return nil, err
	}
	trackDaemon(d, true)
	addrs := make(chan error, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		reported := false
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			if d.log.Len() < 64<<10 {
				d.log.WriteString(line + "\n")
			}
			d.logMu.Unlock()
			if reported {
				continue
			}
			if m := daemonAddrRe.FindStringSubmatch(line); m != nil {
				switch {
				case strings.Contains(line, "tcp line protocol"):
					d.tcpAddr = m[1]
				case strings.Contains(line, "http api"):
					d.httpAddr = m[1]
				case strings.Contains(line, "gossip on"):
					d.gossipAddr = m[1]
				}
			}
			if d.tcpAddr != "" && d.httpAddr != "" && (!wantGossip || d.gossipAddr != "") {
				reported = true
				addrs <- nil
			}
		}
		if !reported {
			addrs <- fmt.Errorf("aarohid exited before reporting its addresses")
		}
	}()
	select {
	case err := <-addrs:
		if err != nil {
			d.kill()
			return nil, fmt.Errorf("%w; stderr:\n%s", err, d.stderrTail())
		}
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("aarohid did not report its addresses in 60s; stderr:\n%s", d.stderrTail())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + d.httpAddr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("aarohid /readyz not ready in 30s; stderr:\n%s", d.stderrTail())
		}
		time.Sleep(time.Millisecond)
	}
	d.bootTime = time.Since(start)
	return d, nil
}

// daemonNice is the niceness daemons run at. The harness stays at 0, so on a
// host the daemons saturate (two peers on two cores) the generator and the
// subscribers still run when they are due, as they would on a machine of
// their own. Raising niceness needs no privilege.
const daemonNice = 19

// startNiced starts cmd from an OS thread whose niceness was raised first: a
// child inherits the niceness of the thread that forks it. The thread is
// discarded afterwards (its goroutine ends while locked to it).
func startNiced(cmd *exec.Cmd) error {
	errc := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, daemonNice); err != nil {
			errc <- fmt.Errorf("setpriority: %w", err)
			return
		}
		errc <- cmd.Start()
	}()
	return <-errc
}

func (d *daemon) stderrTail() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

// kill SIGKILLs the daemon and waits for it to be reaped.
func (d *daemon) kill() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.done
	_ = d.cmd.Wait() // the exit status of a killed process carries nothing
	trackDaemon(d, false)
}

// statusDoc mirrors the /statusz fields the harness reads.
type statusDoc struct {
	LinesAccepted   int64 `json:"lines_accepted"`
	LinesDropped    int64 `json:"lines_dropped"`
	ParseErrors     int64 `json:"parse_errors"`
	QueueDepth      int   `json:"queue_depth"`
	SubscriberDrops int64 `json:"subscriber_drops"`
	Manager         struct {
		LinesScanned int
	} `json:"manager"`
	Shards []struct {
		Pending int `json:"pending"`
	} `json:"shards"`
	WAL *struct {
		LastIndex uint64 `json:"last_index"`
	} `json:"wal"`
	Recovery *struct {
		ReplayedRecords uint64  `json:"replayed_records"`
		DurationSeconds float64 `json:"duration_seconds"`
	} `json:"recovery"`
	Cluster *struct {
		Peers []struct {
			Name  string `json:"name"`
			State int    `json:"state"`
		} `json:"peers"`
		ForwardedOut  int64 `json:"forwarded_out"`
		ForwardErrors int64 `json:"forward_errors"`
		Misrouted     int64 `json:"misrouted"`
		Ship          []struct {
			Last  uint64 `json:"last"`
			Acked uint64 `json:"acked"`
		} `json:"ship"`
	} `json:"cluster"`
}

var statusClient = &http.Client{Timeout: 10 * time.Second}

func (d *daemon) status() (*statusDoc, error) {
	resp, err := statusClient.Get("http://" + d.httpAddr + "/statusz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st statusDoc
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("statusz: %w", err)
	}
	return &st, nil
}

// procUsage is what /proc says a process has consumed.
type procUsage struct {
	cpu    time.Duration // user + system
	peakKB int64         // VmHWM
}

// clockTick is USER_HZ; Linux fixes it at 100 for every architecture Go
// supports.
const clockTick = 10 * time.Millisecond

func readProcUsage(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return u, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	u.cpu = time.Duration(utime+stime) * clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				u.peakKB, _ = strconv.ParseInt(f[1], 10, 64) // absent field reads as 0
			}
		}
	}
	return u, nil
}

// selfCPU is the harness's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
