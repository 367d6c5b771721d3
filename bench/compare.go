package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runSet is the records of one -out file grouped by workload.
type runSet map[string][]record

func readRunSet(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if rec.Trace == 0 {
			set[rec.Workload] = append(set[rec.Workload], rec)
		}
	}
	return set, sc.Err()
}

func (s runSet) values(workload, metric string) []float64 {
	var out []float64
	for _, rec := range s[workload] {
		if v, ok := rec.Metrics[metric]; ok && rec.Invalid == "" {
			out = append(out, v.Value)
		}
	}
	return out
}

// failedShare is ops_failed ÷ ops_attempted over a workload's runs.
func (s runSet) failedShare(workload string) float64 {
	var failed, attempted int
	for _, rec := range s[workload] {
		failed += rec.Failed
		attempted += rec.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// judge applies one metric's bound to two sets of values: "regressed" when
// B's median is worse than A's by more than the bound, "unresolved" when
// either set's quartile spread is wider than the bound (the runs cannot tell
// a change of that size from noise), "ok" otherwise.
func judge(m metricSpec, a, b []float64) (verdict string, change float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		change = (mb - ma) / ma
	}
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	switch {
	case len(a) == 0 || len(b) == 0:
		return "unresolved", change
	case worse > m.Bound:
		return "regressed", change
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return "unresolved", change
	}
	return "ok", change
}

// compareFiles prints one row per (metric, workload) and an ops_failed row
// per workload; it fails when any row regressed.
func compareFiles(spec *benchSpec, pathA, pathB string, w io.Writer) error {
	a, err := readRunSet(pathA)
	if err != nil {
		return err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return err
	}
	regressed := 0
	fmt.Fprintf(w, "%-16s %-26s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "A median", "B median", "change", "A iqr", "B iqr", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			verdict, change := judge(m, va, vb)
			if verdict == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-16s %-26s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s (n=%d,%d)\n",
				wl.Name, m.Name, median(va), median(vb), 100*change,
				100*spread(va), 100*spread(vb), 100*m.Bound, verdict, len(va), len(vb))
		}
		fa, fb := a.failedShare(wl.Name), b.failedShare(wl.Name)
		verdict := "ok"
		if fb > fa {
			verdict = "regressed"
			regressed++
		}
		fmt.Fprintf(w, "%-16s %-26s %14.6f %14.6f  %s\n", wl.Name, "ops_failed share", fa, fb, verdict)
	}
	if regressed > 0 {
		return fmt.Errorf("%d rows regressed", regressed)
	}
	return nil
}
