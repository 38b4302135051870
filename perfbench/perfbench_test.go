package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string, names []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	return e2e, layer, names
}

func shortConfig(t *testing.T, name string, trace bool) config {
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return config{workload: w, seed: 7, seconds: 2, trace: trace, out: t.TempDir(), scale: 0.1}
}

// checkMetrics requires exactly the declared metrics, each with its unit and
// a finite value, and a result line that encodes as JSON.
func checkMetrics(t *testing.T, b *bench, want map[string]string) {
	t.Helper()
	res := b.result()
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("result does not encode: %v", err)
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
}

func TestShortRunPassesOracles(t *testing.T) {
	e2e, layer, names := declared(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %v, the benchmark has %d workloads", names, len(workloads))
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			b, err := run(shortConfig(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res := b.result()
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					name, trace, res.Correct, res.Attempted, res.Failed, b.problems)
			}
			if trace {
				checkMetrics(t, b, layer)
			} else {
				checkMetrics(t, b, e2e)
				for n, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, n, m.Value)
					}
				}
			}
		}
	}
}

func TestCorruptOracleCountsFailures(t *testing.T) {
	cfg := shortConfig(t, "unit", false)
	cfg.corrupt = true
	b, err := run(cfg)
	if err != nil {
		t.Fatalf("a wrong answer must not abort the run: %v", err)
	}
	res := b.result()
	if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
		t.Fatalf("correct=%v attempted=%d failed=%d, want counted failures", res.Correct, res.Attempted, res.Failed)
	}
	for _, stage := range []string{"batch", "explore", "live", "stream"} {
		found := false
		for _, p := range b.problems {
			found = found || strings.HasPrefix(p, stage+":")
		}
		if !found {
			t.Errorf("no failure recorded for the %s stage: %v", stage, b.problems)
		}
	}
}
