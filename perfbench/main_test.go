package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the code
// must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := sortedKeys(workloads); strings.Join(got, ",") != strings.Join(names, ",") {
		t.Errorf("workloads: code %v, BENCHMARK.json %v", got, names)
	}
	check := func(kind string, defs []metricDef, spec []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(spec) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(defs), len(spec))
			return
		}
		for i, d := range defs {
			if d.name != spec[i].Name || d.unit != spec[i].Unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, spec[i].Name, spec[i].Unit)
			}
		}
	}
	check("end_to_end", e2eMetrics, spec.EndToEnd)
	check("per_layer", layerMetrics, spec.PerLayer)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// TestSmokeEmitsEveryMetric runs every workload at smoke size, untraced
// and traced, and checks the result line names every metric with its
// unit and that the correctness gate passed.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	for _, w := range sortedKeys(workloads) {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w, "--seed", "3", "--seconds", "1.2", "--trace", trace,
					"--smoke", "--out-dir", t.TempDir()}
				if err := run(args, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for _, name := range reportNames(w, trace == "1") {
					if !strings.Contains(out.String(), name+" ") {
						t.Errorf("report does not print %s", name)
					}
				}
				defs := e2eMetrics
				if trace == "1" {
					defs = layerMetrics
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Value == nil {
						t.Errorf("metric %s missing", d.name)
						continue
					}
					if m.Unit != d.unit {
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
			})
		}
	}
}

// reportNames are the metrics a run prints in its report lines rather than
// in the result line.
func reportNames(workload string, traced bool) []string {
	names := []string{"answers_per_s", "latency_p50_ms", "latency_p90_ms", "latency_p99_ms",
		"error_rate", "dr_err_p50_m", "resolved_frac", "setup_s", "peak_heap_mb",
		"wire_bytes_per_m", "sim.execute_convoy_s", "cpu_ms_per_answer"}
	switch workload {
	case "convoy-dsrc":
		names = append(names, "tick_p50_ms", "tick_p90_ms", "sim.advance_ms_p50", "sim.resolve_all_ms_p50")
	case "serve-track":
		names = append(names, "client.send_lag_ms_p99", "client.stream_session_ms_p50", "serve.resident_bytes_per_vehicle")
	case "serve-cold":
		names = append(names, "client.stream_session_ms_p50", "serve.resident_bytes_per_vehicle", "same-convoy (resolvable) pair share")
	}
	if traced && workload != "convoy-dsrc" {
		names = append(names, "serve.resolve_ms_p50", "serve.resolve_ms_p99", "serve.queue_depth_peak", "client.unexplained_ms_p50")
	}
	return names
}

// TestWrongAnswerFailsGate perturbs one timed answer by one ulp: every
// workload's correctness gate must refuse the run and print no result.
func TestWrongAnswerFailsGate(t *testing.T) {
	for _, w := range sortedKeys(workloads) {
		t.Run(w, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{"--workload", w, "--seed", "3", "--seconds", "0.5", "--smoke",
				"--inject-wrong-answer", "--out-dir", t.TempDir()}, &out)
			if err == nil || !strings.Contains(err.Error(), "correctness gate") {
				t.Fatalf("run with a wrong answer: err = %v, want a correctness-gate failure", err)
			}
			if out.Len() != 0 {
				t.Errorf("a failed run printed output:\n%s", out.String())
			}
		})
	}
}
