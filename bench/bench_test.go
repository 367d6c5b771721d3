package main

import (
	"bufio"
	"math"
	"net"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/lexgen"
)

// testSpec is a small block: quick to render, still several chains a pass.
var testSpec = streamSpec{nodes: 8, benignPerMin: 1, failures: 24, anomalyRate: 0.05, dropProb: 0.05}

func testStream(t *testing.T, total int) *stream {
	t.Helper()
	s, err := renderStream(testSpec, 7, total)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQuantileAndSegments(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// Five segments of ten samples; one segment is a stall a hundred times
	// slower. The segment median ignores it, the pooled p99 does not.
	var lat []float64
	for seg := 0; seg < 5; seg++ {
		for i := 0; i < 10; i++ {
			x := 100.0 + float64(i)
			if seg == 3 {
				x *= 100
			}
			lat = append(lat, x)
		}
	}
	if got := segmentQuantile(lat, 0.5); math.Abs(got-104.5) > 1e-9 {
		t.Errorf("segment median = %v, want 104.5", got)
	}
	if pooled := quantile(sortedCopy(lat), 0.99); pooled < 10000 {
		t.Errorf("pooled p99 = %v, expected the stall to dominate it", pooled)
	}
	if got := segmentQuantile(lat, 0.99); got > 110 {
		t.Errorf("segment p99 = %v, want the stalled segment voted out", got)
	}
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(v, n=4): for
// 1..10 that is [2.75, 5.5, 8.25].
// The yardstick does the same work on every reading (same inputs, same
// result) and the slowdown is the mean reading over the reference.
func TestYardstick(t *testing.T) {
	a, b := newCalibrator(), newCalibrator()
	if !bytesEqual(a.text, b.text) || len(a.text) != 1<<20-(1<<20)%100 {
		t.Fatalf("yardstick text is not fixed: %d and %d bytes", len(a.text), len(b.text))
	}
	for i := 0; i+100 <= len(a.text); i += 100 {
		if a.text[i+99] != '\n' || a.text[i+26] != ' ' {
			t.Fatalf("yardstick line %d is not 100 bytes with a node field at 27: %q", i/100, a.text[i:i+100])
		}
	}
	a.handleLines()
	a.sum()
	b.handleLines()
	b.sum()
	if a.sink != b.sink || a.sink == 0 {
		t.Errorf("two yardsticks computed %d and %d", a.sink, b.sink)
	}
	if got := slowdown([]float64{calibReference, 2 * calibReference, 3 * calibReference}); math.Abs(got-2) > 1e-9 {
		t.Errorf("slowdown = %v, want 2", got)
	}
}

func bytesEqual(a, b []byte) bool { return string(a) == string(b) }

func TestSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 5, 9], n=4) == [3.0, 5.0, 9.0]
	if got, want := spread([]float64{3, 9, 5}), 6.0/5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three = %v, want %v", got, want)
	}
}

// TestLoopedStreamStaysMonotone checks the two properties looping relies on:
// every node's timestamps keep rising across passes, and every pass yields
// the same predictions (buildOracle itself refuses a stream whose second pass
// diverges).
func TestLoopedStreamStaysMonotone(t *testing.T) {
	s := testStream(t, 1)
	n := s.lines()
	total := 3*n + n/2
	s = testStream(t, total)
	last := map[string]time.Time{}
	lines := 0
	s.each(0, total, func(i int, line string) {
		ts, node, _, err := lexgen.ParseLine(line)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if ts.Before(last[node]) {
			t.Fatalf("line %d: node %s goes back from %s to %s", i, node, last[node], ts)
		}
		last[node] = ts
		lines++
	})
	if lines != total {
		t.Fatalf("each visited %d lines, want %d", lines, total)
	}
	o, err := buildOracle(s, total)
	if err != nil {
		t.Fatal(err)
	}
	perPass := o.expectedIn(0, n)
	if perPass == 0 {
		t.Fatal("test stream completes no chain")
	}
	for p := 1; p < 3; p++ {
		if got := o.expectedIn(p*n, (p+1)*n); got != perPass {
			t.Errorf("pass %d expects %d predictions, pass 0 %d", p, got, perPass)
		}
	}
	if got := o.expectedIn(3*n, total); got > perPass {
		t.Errorf("the half pass expects %d predictions, more than a whole one (%d)", got, perPass)
	}
}

// TestRenderIsSeeded: the same seed gives the same bytes, another seed others.
func TestRenderIsSeeded(t *testing.T) {
	a, b := testStream(t, 1), testStream(t, 1)
	if string(a.buf) != string(b.buf) {
		t.Error("same seed rendered different blocks")
	}
	c, err := renderStream(testSpec, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.buf) == string(c.buf) {
		t.Error("different seeds rendered the same block")
	}
}

// TestOracleMatcher feeds the matcher a perfect delivery, then one each of a
// duplicate, a drop and a spurious prediction.
func TestOracleMatcher(t *testing.T) {
	s := testStream(t, 1)
	total := 2 * s.lines()
	s = testStream(t, total)
	o, err := buildOracle(s, total)
	if err != nil {
		t.Fatal(err)
	}
	var keys []predKey
	for k := range o.want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return o.want[keys[i]].line < o.want[keys[j]].line })
	if len(keys) < 3 {
		t.Fatalf("only %d predictions in the test stream", len(keys))
	}

	var clean verdict
	for _, k := range keys {
		if line, ok := o.observe(k, &clean); !ok || line != o.want[k].line {
			t.Fatalf("observe(%s) = %d, %v", k, line, ok)
		}
	}
	o.finish(0, total, &clean)
	if clean.failed() != 0 {
		t.Fatalf("perfect delivery judged %+v", clean)
	}

	o.reset()
	var v verdict
	for _, k := range keys[1:] { // keys[0] is dropped
		o.observe(k, &v)
	}
	o.observe(keys[1], &v) // duplicate
	ghost := keys[2]
	ghost.matchedMs += 12345
	o.observe(ghost, &v) // spurious
	o.finish(0, total, &v)
	if v.missing != 1 || v.duplicate != 1 || v.spurious != 1 {
		t.Errorf("verdict = %d missing, %d duplicate, %d spurious; want one of each", v.missing, v.duplicate, v.spurious)
	}
	if v.failed() != 3 || len(v.examples) != 3 {
		t.Errorf("failed() = %d with %d examples, want 3 and 3", v.failed(), len(v.examples))
	}
}

// TestStallInflatesDueTimeLatency is the coordinated-omission check. A fake
// daemon stops reading for a while; the generator keeps to its schedule, and
// because latency is taken from each line's due time, every line that was due
// during the stall reports it — not just the one that met it.
func TestStallInflatesDueTimeLatency(t *testing.T) {
	const (
		rate  = 20000.0
		lines = 6000 // 300 ms
		stall = 100 * time.Millisecond
	)
	s := testStream(t, lines)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	arrivals := make(chan []time.Time, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			arrivals <- nil
			return
		}
		defer c.Close()
		var at []time.Time
		rd := bufio.NewReader(c)
		for len(at) < lines {
			if _, err := rd.ReadSlice('\n'); err != nil {
				break
			}
			at = append(at, time.Now())
			if len(at) == lines/3 {
				time.Sleep(stall)
			}
		}
		arrivals <- at
	}()
	snd, err := dialSender(ln.Addr().String(), s)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.conn.Close()
	sched, late, err := snd.paced(0, lines, rate)
	if err != nil {
		t.Fatal(err)
	}
	at := <-arrivals
	if len(at) != lines {
		t.Fatalf("fake daemon read %d lines, want %d", len(at), lines)
	}
	slow := 0
	var worst time.Duration
	for i, a := range at {
		d := a.Sub(sched.due(i))
		worst = max(worst, d)
		if d > stall/2 {
			slow++
		}
	}
	if worst < stall*8/10 {
		t.Errorf("worst latency %s, want about the %s stall", worst, stall)
	}
	// Half the stall's worth of lines were due while at least half of it
	// still lay ahead.
	if want := int(rate * stall.Seconds() / 2 * 0.8); slow < want {
		t.Errorf("%d lines report more than half the stall, want at least %d: the stall was omitted", slow, want)
	}
	for _, l := range late {
		if l > 50*time.Millisecond {
			t.Errorf("generator ran %s late: it waited for the stalled reader", l)
			break
		}
	}
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestNamesMatchBenchmarkJSON holds the harness and BENCHMARK.json together:
// the workloads are the same in both, and every metric name the source
// reports is declared, and the reverse. (A run also refuses to print a record
// that disagrees with the file; this catches it without running.)
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if !nameRe.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
	}

	reported := func(file string, res ...*regexp.Regexp) map[string]bool {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, re := range res {
			for _, m := range re.FindAllStringSubmatch(string(src), -1) {
				names[m[1]] = true
			}
		}
		return names
	}
	e2e := reported("main.go", regexp.MustCompile(`(?m)^\t+"([a-z0-9_]+)":\s+\{`))
	layer := reported("trace.go", regexp.MustCompile(`set\("([^"%]+)"`))
	for _, n := range []int{1, 2, 4} {
		layer[strings.Replace("shard.router_sN_ns_per_line", "N", string(rune('0'+n)), 1)] = true
	}
	for _, c := range []struct {
		kind     string
		declared []metricSpec
		reported map[string]bool
	}{{"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layer}} {
		declared := map[string]bool{}
		for _, m := range c.declared {
			declared[m.Name] = true
			if !nameRe.MatchString(m.Name) {
				t.Errorf("%s metric name %q", c.kind, m.Name)
			}
			if !c.reported[m.Name] {
				t.Errorf("%s metric %s is declared but never reported", c.kind, m.Name)
			}
		}
		for name := range c.reported {
			if !declared[name] {
				t.Errorf("%s metric %s is reported but not declared", c.kind, name)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "y", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, "ok"},
		{lower, steady, []float64{115, 114, 116, 115, 115}, "regressed"},
		{lower, steady, []float64{85, 84, 86, 85, 85}, "ok"},
		{higher, steady, []float64{85, 84, 86, 85, 85}, "regressed"},
		{lower, steady, []float64{60, 100, 140, 90, 110}, "unresolved"},
		{lower, steady, nil, "unresolved"},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v → %v) = %s, want %s", c.m.Better, c.a, c.b, got, c.want)
		}
	}
}

// TestVetAndLintClean runs the repository's own static checks over this
// module: it is a module of its own, so the root's integration tests do not
// reach it.
func TestVetAndLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the linter")
	}
	for _, args := range [][]string{
		{"vet", "."},
		{"run", "repro/cmd/aarohilint", "."},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
