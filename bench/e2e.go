package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// latencyLimit is the fixed limit a paced prediction should arrive within.
// A later one is counted and reported but is not a failed operation: the
// prediction is correct, and on a shared host a stall of the whole machine
// for a second makes hundreds of them late without the daemon having done
// anything wrong. The latency metrics carry the delay.
const latencyLimit = time.Second

// settleTimeout bounds the wait for a phase's lines to be fully processed
// and its predictions delivered; what is still missing then is counted.
const settleTimeout = 20 * time.Second

// The recover phase kills and restarts the daemon up to recoverRepeats times
// and reports the median, but starts no further restart once recoverBudget
// is spent: a multi-second journal replay is steady enough measured once.
const (
	recoverRepeats = 3
	recoverBudget  = 3 * time.Second
)

// setupRepeats is how many times set-up (render, oracle, boot) runs; the
// reported time is the median and the last one is used.
const setupRepeats = 3

// env is what a run needs from its surroundings.
type env struct {
	root    string // repository checkout
	bin     string // aarohid binary
	scratch string // per-run scratch directory under buildDir
	logf    func(format string, args ...any)
}

// fixture is a set-up workload: inputs rendered, oracle computed, daemons
// answering /readyz.
type fixture struct {
	s       *stream
	o       *oracle
	total   int
	daemons []*daemon
}

func (f *fixture) killAll() {
	for _, d := range f.daemons {
		d.kill()
	}
}

// peerArgs is the command line of peer i. join is peer 0's gossip address.
func (w *workload) peerArgs(i int, chains, tpl, scratch, join string) []string {
	p := w.peers[i]
	args := []string{"-chains", chains, "-templates", tpl,
		"-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0", "-overflow", "block",
		"-shards", strconv.Itoa(p.shards)}
	args = append(args, p.flags...)
	if p.durable {
		args = append(args, "-data-dir", filepath.Join(scratch, "data-"+p.name))
	}
	if len(w.peers) > 1 {
		// Membership is not what the workload measures: a suspected peer gets
		// longer than any host stall to refute before it is declared dead
		// and its shards are taken over.
		args = append(args, "-peer-name", p.name, "-gossip-addr", "127.0.0.1:0", "-suspect-timeout", "30s")
		if join != "" {
			args = append(args, "-join", join)
		}
	}
	return args
}

// setUp renders the workload's stream from the seed, computes the oracle and
// boots the daemons on empty data directories.
func setUp(e *env, w *workload, seed int64, seconds int) (*fixture, error) {
	if err := os.RemoveAll(e.scratch); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return nil, err
	}
	f := &fixture{total: w.pacedLines(seconds) + w.blastLines(seconds)}
	var err error
	if f.s, err = renderStream(w.stream, seed, f.total); err != nil {
		return nil, err
	}
	if f.o, err = buildOracle(f.s, f.total); err != nil {
		return nil, err
	}
	chains, tpl, err := writeModel(e.scratch, f.s.model)
	if err != nil {
		return nil, err
	}
	join := ""
	for i := range w.peers {
		d, err := startDaemon(e.bin, w.peerArgs(i, chains, tpl, e.scratch, join)...)
		if err != nil {
			f.killAll()
			return nil, fmt.Errorf("booting peer %s: %w", w.peers[i].name, err)
		}
		f.daemons = append(f.daemons, d)
		if i == 0 {
			join = d.gossipAddr
		}
	}
	if len(f.daemons) > 1 {
		if err := f.awaitMembership(); err != nil {
			f.killAll()
			return nil, err
		}
	}
	return f, nil
}

// awaitMembership waits until every peer sees every peer alive: a line sent
// before that would be placed by a partial ring.
func (f *fixture) awaitMembership() error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		ok := true
		for _, d := range f.daemons {
			st, err := d.status()
			if err != nil {
				return err
			}
			alive := 0
			if st.Cluster != nil {
				for _, p := range st.Cluster.Peers {
					if p.State == 0 {
						alive++
					}
				}
			}
			ok = ok && alive == len(f.daemons)
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("peers did not converge on %d live members in 20s", len(f.daemons))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// clusterTotals sums the counters a completion check needs over all peers.
type clusterTotals struct {
	scanned, depth, pending  int
	dropped, parseErrors     int64
	misrouted, forwardErrors int64
	forwardedOut             int64
	subscriberDrops          int64
	accepted0                int64 // lines accepted by the peer the client feeds
	journaled0               int64 // lines that peer has journaled
	shipLag                  uint64
}

func (f *fixture) totals() (clusterTotals, error) {
	var t clusterTotals
	for i, d := range f.daemons {
		st, err := d.status()
		if err != nil {
			return t, err
		}
		if i == 0 {
			t.accepted0 = st.LinesAccepted
			if st.WAL != nil {
				t.journaled0 = int64(st.WAL.LastIndex)
			}
		}
		t.scanned += st.Manager.LinesScanned
		t.depth += st.QueueDepth
		t.dropped += st.LinesDropped
		t.parseErrors += st.ParseErrors
		t.subscriberDrops += st.SubscriberDrops
		for _, sh := range st.Shards {
			t.pending += sh.Pending
		}
		if c := st.Cluster; c != nil {
			t.misrouted += c.Misrouted
			t.forwardErrors += c.ForwardErrors
			t.forwardedOut += c.ForwardedOut
			for _, s := range c.Ship {
				if lag := s.Last - s.Acked; s.Last > s.Acked && lag > t.shipLag {
					t.shipLag = lag
				}
			}
		}
	}
	return t, nil
}

// usage is the daemons' CPU time summed and the largest of their peak RSS.
func (f *fixture) usage() (procUsage, error) {
	var sum procUsage
	for _, d := range f.daemons {
		u, err := readProcUsage(d.cmd.Process.Pid)
		if err != nil {
			return sum, err
		}
		sum.cpu += u.cpu
		sum.peakKB = max(sum.peakKB, u.peakKB)
	}
	return sum, nil
}

// settle waits until every one of the `sent` lines has been scanned, the
// queues are empty and `wantPreds` predictions have reached the subscribers.
// It returns the time the last of those became true (as observed), and
// whether it did before the timeout.
func (f *fixture) settle(subs []*subscriber, sent int, wantPreds int64) (time.Time, bool, error) {
	deadline := time.Now().Add(settleTimeout)
	for {
		var got int64
		for _, sub := range subs {
			got += sub.preds.Load()
		}
		if got >= wantPreds {
			t, err := f.totals()
			if err != nil {
				return time.Time{}, false, err
			}
			if t.accepted0 == int64(sent) && t.scanned+int(t.parseErrors) >= sent && t.depth == 0 && t.pending == 0 {
				return time.Now(), true, nil
			}
		}
		if time.Now().After(deadline) {
			return time.Now(), false, nil
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// pollAlerts reads the ranked alert view at 10 Hz until stop closes — the
// operator dashboard the arbiter exists for.
func pollAlerts(httpAddr string, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			resp, err := http.Get("http://" + httpAddr + "/predictions?mode=alerts")
			if err != nil {
				continue
			}
			_, _ = io.Copy(io.Discard, resp.Body) // only the daemon's work matters
			resp.Body.Close()
		}
	}
}

// e2eResult is everything one workload run observed.
type e2eResult struct {
	setup        []float64 // seconds, one per set-up
	pacedLines   int
	blastLines   int
	expected     int         // oracle predictions over both phases
	latencyUs    []float64   // paced predictions, in due-time order
	latencyBySub [][]float64 // the same, split by the peer that delivered
	lateUs       []float64   // generator lateness per paced write
	loadgenCPU   float64     // harness CPU share of one core during paced
	blastSeconds float64
	blastRates   []float64     // lines/s of each equal part of the saturate phase
	blastCPU     time.Duration // daemon user+sys over the saturate phase
	rssPeakMB    float64
	recovery     []float64 // seconds, one per restart
	replayRate   float64   // lines/s of the last restart's journal replay
	verdict      verdict
	late         int   // paced predictions later than latencyLimit
	lineFailures int64 // dropped, parse errors, misrouted, forward errors, not accepted
	forwardedOut int64
	forwardErrs  int64
	subDrops     int64
	shipBytes    int64   // size of the fed peer's mirror on its successor
	journaled0   int64   // lines the fed peer journaled
	bootSeconds  float64 // exec → /readyz of the fed peer on an empty data dir
	shipLagMax   uint64  // largest last − acked seen by the 10 Hz sampler
	discardShare float64 // lines the reference scanner discarded
	invalid      string  // why the latencies cannot be trusted ("" = valid)

	// calib holds the yardstick's readings: one before the run, one after
	// every set-up, one after each of paced and saturate and one after every
	// restart.
	calib []float64
}

// latenessP99 is the generator-validity number: the p99 over paced socket
// writes of how late the oldest line of the write was, in microseconds.
func (r *e2eResult) latenessP99() float64 { return quantile(sortedCopy(r.lateUs), 0.99) }

func (r *e2eResult) attempted() int { return r.pacedLines + r.blastLines + r.expected }

func (r *e2eResult) failed() int {
	return int(r.lineFailures) + r.verdict.failed()
}

// e2eOptions distinguishes the measured run from the traced run's shorter
// look at the same daemons.
type e2eOptions struct {
	setups   int  // how many times to set up (the last one is used)
	restarts int  // upper bound on recover-phase restarts
	sampling bool // poll the daemons' /statusz at 10 Hz during the run
}

var measuredRun = e2eOptions{setups: setupRepeats, restarts: recoverRepeats}

// runE2E drives one workload through boot, paced, saturate and recover.
func runE2E(e *env, w *workload, seed int64, seconds int, opt e2eOptions) (*e2eResult, error) {
	res := &e2eResult{}
	yardstick := newCalibrator()
	calibrate := func() { res.calib = append(res.calib, yardstick.read()) }
	calibrate()
	var f *fixture
	for i := 0; i < opt.setups; i++ {
		if f != nil {
			f.killAll()
		}
		start := time.Now()
		var err error
		if f, err = setUp(e, w, seed, seconds); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(start).Seconds())
		calibrate()
	}
	defer f.killAll()
	res.pacedLines, res.blastLines = w.pacedLines(seconds), w.blastLines(seconds)
	res.expected = len(f.o.want)
	res.discardShare = float64(f.o.stats.Discarded) / float64(f.o.stats.LinesScanned)

	var subs []*subscriber
	closeSubs := func() {
		for _, sub := range subs {
			sub.close()
		}
		subs = nil
	}
	defer closeSubs()
	for _, d := range f.daemons {
		sub, err := subscribe(d.httpAddr, "")
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
	}
	res.latencyBySub = make([][]float64, len(subs))

	stopBackground := make(chan struct{})
	alertsDone := make(chan struct{})
	samplesDone := make(chan uint64, 1)
	if w.alertsPoller {
		go pollAlerts(f.daemons[0].httpAddr, stopBackground, alertsDone)
	}
	if opt.sampling {
		go func() {
			var lagMax uint64
			t := time.NewTicker(100 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopBackground:
					samplesDone <- lagMax
					return
				case <-t.C:
					if tot, err := f.totals(); err == nil {
						lagMax = max(lagMax, tot.shipLag)
					}
				}
			}
		}()
	}
	stopped := false
	stopBg := func() {
		if stopped {
			return
		}
		stopped = true
		close(stopBackground)
		if w.alertsPoller {
			<-alertsDone
		}
		if opt.sampling {
			res.shipLagMax = <-samplesDone
		}
	}
	defer stopBg()

	snd, err := dialSender(f.daemons[0].tcpAddr, f.s)
	if err != nil {
		return nil, err
	}
	defer snd.conn.Close()

	// The harness collects no garbage while it measures: a mark phase would
	// occupy a core next to the sender's, and the daemons (at daemonNice)
	// would wait for both. What a phase allocates is a few megabytes of
	// received lines; it is collected between phases.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()

	// paced: open loop at the workload's frozen rate.
	cpu0, wall0 := selfCPU(), time.Now()
	sched, late, err := snd.paced(0, res.pacedLines, w.pacedRate)
	if err != nil {
		return nil, fmt.Errorf("paced phase: %w", err)
	}
	wantPaced := f.o.expectedIn(0, res.pacedLines)
	_, settled, err := f.settle(subs, res.pacedLines, int64(wantPaced))
	if err != nil {
		return nil, err
	}
	res.loadgenCPU = float64(selfCPU()-cpu0) / float64(time.Since(wall0))
	for _, l := range late {
		res.lateUs = append(res.lateUs, float64(l)/float64(time.Microsecond))
	}
	if err := res.collect(f, subs, &sched); err != nil {
		return nil, err
	}
	f.o.finish(0, res.pacedLines, &res.verdict)
	if !settled {
		e.logf("paced phase did not settle within %s", settleTimeout)
	}
	if p := res.latenessP99(); p > 1000 {
		res.invalid = fmt.Sprintf("generator lateness p99 %.0f us exceeds 1000 us", p)
	} else if res.loadgenCPU > 0.8 {
		res.invalid = fmt.Sprintf("generator used %.2f of a core during paced", res.loadgenCPU)
	}

	// saturate: the same connection, unpaced.
	runtime.GC()
	calibrate()
	before, err := f.usage()
	if err != nil {
		return nil, err
	}
	marks, err := snd.blast(res.pacedLines, f.total)
	if err != nil {
		return nil, fmt.Errorf("saturate phase: %w", err)
	}
	blastEnd, settled, err := f.settle(subs, f.total, int64(res.expected))
	if err != nil {
		return nil, err
	}
	if !settled {
		e.logf("saturate phase did not settle within %s", settleTimeout)
	}
	res.blastSeconds = blastEnd.Sub(marks[0].at).Seconds()
	res.blastRates = windowRates(marks, blastEnd)
	after, err := f.usage()
	if err != nil {
		return nil, err
	}
	res.blastCPU = after.cpu - before.cpu
	res.rssPeakMB = float64(after.peakKB) / 1024
	if err := res.collect(f, subs, nil); err != nil {
		return nil, err
	}
	f.o.finish(res.pacedLines, f.total, &res.verdict)
	stopBg()
	calibrate()

	tot, err := f.totals()
	if err != nil {
		return nil, err
	}
	res.lineFailures = tot.dropped + tot.parseErrors + tot.misrouted + tot.forwardErrors + tot.subscriberDrops
	if short := int64(f.total) - tot.accepted0; short > 0 {
		res.lineFailures += short
	}
	res.bootSeconds = f.daemons[0].bootTime.Seconds()
	res.journaled0 = tot.journaled0
	res.forwardedOut, res.forwardErrs = tot.forwardedOut, tot.forwardErrors
	res.subDrops = tot.subscriberDrops
	res.shipBytes = dirBytes(filepath.Join(e.scratch, "data-"+w.peers[len(w.peers)-1].name, "ship"))

	// recover: SIGKILL everything, restart the fed peer on its own
	// directory, time exec → /readyz.
	closeSubs()
	snd.conn.Close()
	args := f.daemons[0].args
	f.killAll()
	for spent := time.Duration(0); len(res.recovery) < opt.restarts && spent < recoverBudget; {
		d, err := startDaemon(e.bin, args...)
		if err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		f.daemons = []*daemon{d}
		res.recovery = append(res.recovery, d.bootTime.Seconds())
		spent += d.bootTime
		if len(res.recovery) == 1 && w.peers[0].durable {
			if err := res.checkRecovered(f, d, len(w.peers) == 1); err != nil {
				return nil, err
			}
		}
		d.kill()
		calibrate()
	}
	return res, os.RemoveAll(e.scratch)
}

// collect drains the subscribers and matches what arrived against the
// oracle. With a schedule, each prediction is timed from the due time of the
// line that completed its chain.
func (res *e2eResult) collect(f *fixture, subs []*subscriber, sched *schedule) error {
	type timed struct {
		line int
		us   float64
		sub  int
	}
	var lat []timed
	for si, sub := range subs {
		for _, r := range sub.take() {
			k, isPred, err := r.decode()
			if err != nil {
				return err
			}
			if !isPred {
				continue
			}
			line, ok := f.o.observe(k, &res.verdict)
			if !ok || sched == nil {
				continue
			}
			d := r.at.Sub(sched.due(line))
			if d > latencyLimit {
				res.late++
			}
			lat = append(lat, timed{line, float64(d) / float64(time.Microsecond), si})
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i].line < lat[j].line })
	for _, l := range lat {
		res.latencyUs = append(res.latencyUs, l.us)
		res.latencyBySub[l.sub] = append(res.latencyBySub[l.sub], l.us)
	}
	return nil
}

// checkRecovered reads the outputs the restarted daemon re-derived from its
// journal. With whole set (one daemon, no snapshot) they must equal the
// oracle: every accepted line was journaled before it was parsed.
func (res *e2eResult) checkRecovered(f *fixture, d *daemon, whole bool) error {
	st, err := d.status()
	if err != nil {
		return err
	}
	if st.Recovery == nil {
		return fmt.Errorf("restarted daemon reports no recovery")
	}
	if st.Recovery.DurationSeconds > 0 {
		res.replayRate = float64(st.Recovery.ReplayedRecords) / st.Recovery.DurationSeconds
	}
	if !whole {
		return nil
	}
	sub, err := subscribe(d.httpAddr, "?replay=recovered")
	if err != nil {
		return err
	}
	defer sub.close()
	want := int64(len(f.o.want))
	for deadline := time.Now().Add(settleTimeout); sub.preds.Load() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	f.o.reset()
	for _, r := range sub.take() {
		k, isPred, err := r.decode()
		if err != nil {
			return err
		}
		if isPred {
			f.o.observe(k, &res.verdict)
		}
	}
	f.o.finish(0, f.total, &res.verdict)
	if got := int(st.Recovery.ReplayedRecords); got != f.total {
		res.lineFailures += int64(abs(f.total - got))
		res.verdict.note("journal replayed %d lines, %d were sent", got, f.total)
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// dirBytes is the total size of the regular files under dir (0 if absent).
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil // a file vanishing mid-walk only shrinks the total
	})
	return n
}
