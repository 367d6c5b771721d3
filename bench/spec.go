package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json at the repository root — the one place
// metric names, units, directions and regression bounds are declared.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metricsFor lists the metrics a run with the given -trace value reports.
func (s *benchSpec) metricsFor(trace int) []metricSpec {
	if trace == 1 {
		return s.PerLayer
	}
	return s.EndToEnd
}

// check verifies that a run reported exactly the declared metrics, each
// under its declared unit.
func (s *benchSpec) check(rec record) error {
	want := s.metricsFor(rec.Trace)
	var problems []string
	seen := map[string]bool{}
	for _, m := range want {
		seen[m.Name] = true
		v, ok := rec.Metrics[m.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.Name)
		case v.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s in %q, declared %q", m.Name, v.Unit, m.Unit))
		}
	}
	for name := range rec.Metrics {
		if !seen[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("%s: reported metrics disagree with BENCHMARK.json: %v", rec.Workload, problems)
	}
	return nil
}
