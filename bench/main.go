// Command bench is the repository's benchmark: an out-of-process load test of
// cmd/aarohid (end-to-end metrics, -trace 0) and a layer-by-layer traced run
// (per-layer metrics, -trace 1). See README.md.
//
//	go run -C bench . -workload benign-mem -seed 1 -seconds 20 -trace 0
//	go run -C bench . -seed 1 -out runs.ndjson        # every workload
//	go run -C bench . -compare A.ndjson B.ndjson
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of an -out file: a result plus what produced it.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    int               `json:"trace"`
	Invalid  string            `json:"invalid,omitempty"`
	Host     map[string]string `json:"host"`
	result
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: every workload in turn)")
		seed         = flag.Int64("seed", 1, "seed the input streams are generated from")
		seconds      = flag.Int("seconds", 0, "run length in seconds (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics against real daemons; 1: per-layer metrics and trace-<workload>.json")
		out          = flag.String("out", "", "append each run's record to this NDJSON file")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments and apply the BENCHMARK.json bounds")
	)
	flag.Parse()
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-interrupted
		killLiveDaemons()
		os.Exit(1)
	}()
	if err := run(*workloadName, *seed, *seconds, *trace, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed int64, seconds, trace int, out string, compare bool, args []string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two -out files")
		}
		return compareFiles(spec, args[0], args[1], os.Stdout)
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	todo := workloads
	if workloadName != "" {
		w := workloadByName(workloadName)
		if w == nil {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		todo = []*workload{w}
	}

	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return err
	}
	bin, buildTook, err := buildAarohid(root)
	if err != nil {
		return err
	}
	e := &env{
		root:    root,
		bin:     bin,
		scratch: filepath.Join(root, buildDir, fmt.Sprintf("run-%d", os.Getpid())),
		logf:    func(format string, args ...any) { fmt.Printf("note: "+format+"\n", args...) },
	}
	host := hostInfo(root, e.scratch)
	fmt.Printf("bench: loopback only; aarohid built in %.2fs; %s\n", buildTook.Seconds(), describe(host))

	allOK := true
	for _, w := range todo {
		var rec record
		if trace == 1 {
			rec, err = traceRun(e, w, seed, seconds)
		} else {
			rec, err = endToEndRun(e, w, seed, seconds)
		}
		if err != nil {
			_ = os.RemoveAll(e.scratch) // the run's error is the one to report
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rec.Host = host
		if err := spec.check(rec); err != nil {
			return err
		}
		if out != "" {
			if err := appendRecord(out, rec); err != nil {
				return err
			}
		}
		printRecord(spec, rec)
		allOK = allOK && rec.Correct
		if len(todo) == 1 {
			line, err := json.Marshal(rec.result)
			if err != nil {
				return err
			}
			fmt.Println(string(line))
		}
	}
	if !allOK {
		return fmt.Errorf("outputs did not match the oracle (see above)")
	}
	return nil
}

// endToEndRun runs one workload against real daemons and derives the
// end-to-end metrics.
func endToEndRun(e *env, w *workload, seed int64, seconds int) (record, error) {
	rec := record{Workload: w.name, Seed: seed, Seconds: seconds}
	res, err := runE2E(e, w, seed, seconds, measuredRun)
	if err != nil {
		return rec, err
	}
	for _, ex := range res.verdict.examples {
		e.logf("%s", ex)
	}
	rec.Invalid = res.invalid
	// Times are divided and rates multiplied by the run's slowdown
	// (calib.go): the numbers are what the reference host would have shown.
	// The paced latency is divided by its square: a slower host takes longer
	// over each line and has more lines waiting when one arrives, and the
	// measured exponent is 1.8 to 2.2 (README.md, "The yardstick"). Memory
	// is as measured.
	slow := slowdown(res.calib)
	setup, rate := median(res.setup), median(res.blastRates)
	cpu := float64(res.blastCPU) / float64(time.Microsecond) / float64(res.blastLines)
	p50, recovery := segmentQuantile(res.latencyUs, 0.50), median(res.recovery)
	rec.result = result{
		Correct:   res.failed() == 0,
		Attempted: res.attempted(),
		Failed:    res.failed(),
		Metrics: map[string]metricValue{
			"setup_s":                {setup / slow, "s"},
			"sustained_lines_per_s":  {rate * slow, "lines/s"},
			"daemon_cpu_us_per_line": {cpu / slow, "us"},
			"predict_latency_p50_us": {p50 / (slow * slow), "us"},
			"recovery_s":             {recovery / slow, "s"},
			"daemon_rss_peak_mb":     {res.rssPeakMB, "MiB"},
		},
	}
	fmt.Printf("%s: host slowdown %.4f (yardstick readings in ms %s against a reference of %.1f); as measured: setup_s %.4f, sustained_lines_per_s %.0f, daemon_cpu_us_per_line %.4f, predict_latency_p50_us %.1f, recovery_s %.4f\n",
		w.name, slow, millis(res.calib), calibReference*1e3, setup, rate, cpu, p50, recovery)
	pooled := sortedCopy(res.latencyUs)
	fmt.Printf("%s: latency tail, not a bounded metric: p99 %.0f us (median over equal runs of the paced phase), pooled p95 %.0f p99 %.0f p99.9 %.0f max %.0f us\n", w.name,
		segmentQuantile(res.latencyUs, 0.99), quantile(pooled, 0.95), quantile(pooled, 0.99), quantile(pooled, 0.999), quantile(pooled, 1))
	fmt.Printf("%s: %d paced lines at %.0f/s (%d predictions, %d later than %s, generator lateness p99 %.0f us, cpu share %.2f), %d saturate lines in %.2fs, scanner discards %.3f, %d restarts\n",
		w.name, res.pacedLines, w.pacedRate, len(res.latencyUs), res.late, latencyLimit,
		res.latenessP99(), res.loadgenCPU, res.blastLines, res.blastSeconds, res.discardShare, len(res.recovery))
	return rec, nil
}

// millis formats readings taken in seconds as "47.1 46.8 ...".
func millis(seconds []float64) string {
	var b strings.Builder
	for i, s := range seconds {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.1f", s*1e3)
	}
	return b.String()
}

// hostInfo records what the numbers were taken on.
func hostInfo(root, scratch string) map[string]string {
	h := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"network":    "loopback",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h["kernel"] = strings.TrimSpace(string(b))
	}
	h["scratch_fs"] = fsType(filepath.Dir(scratch))
	h["commit"] = commitOf(root)
	return h
}

func describe(h map[string]string) string {
	return fmt.Sprintf("nproc=%s GOMAXPROCS=%s %s kernel=%s scratch_fs=%s commit=%s",
		h["nproc"], h["gomaxprocs"], h["go"], h["kernel"], h["scratch_fs"], h["commit"])
}

// fsType names the filesystem holding dir, from /proc/mounts (longest mount
// point that is a prefix of dir).
func fsType(dir string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// commitOf reads the checked-out commit without running git; a checkout that
// is not a repository reports "none".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", ref))
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	if len(s) > 12 {
		s = s[:12]
	}
	return s
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRecord prints every metric of a run by name with its unit, in the
// order BENCHMARK.json declares them.
func printRecord(spec *benchSpec, rec record) {
	status := "correct"
	if !rec.Correct {
		status = "INCORRECT"
	}
	if rec.Invalid != "" {
		status = "INVALID (" + rec.Invalid + ")"
	}
	fmt.Printf("%s seed=%d seconds=%d trace=%d: %s, ops_attempted=%d ops_failed=%d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, status, rec.Attempted, rec.Failed)
	for _, m := range spec.metricsFor(rec.Trace) {
		if v, ok := rec.Metrics[m.Name]; ok {
			fmt.Printf("  %-34s %16.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
}
