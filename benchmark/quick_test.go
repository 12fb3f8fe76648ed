package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
}

// TestQuickRunReportsEveryMetricOnce boots all four workloads at the quick
// sizes, both passes, and holds the report to BENCHMARK.json: every named
// metric printed exactly once per workload with its unit, nothing unnamed,
// every operation verified.
func TestQuickRunReportsEveryMetricOnce(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range bf.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		units[m.Name] = m.Unit
	}

	dir := t.TempDir()
	var out bytes.Buffer
	cfg, err := parseFlags([]string{"-quick", "-seed", "5", "-seconds", "0.3",
		"-data-dir", filepath.Join(dir, "data"), "-out", filepath.Join(dir, "results.json"),
		"-trace-out", filepath.Join(dir, "trace.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	cfg.stdout = &out
	ok, err := run(cfg)
	if err != nil || !ok {
		t.Fatalf("quick run: ok=%v err=%v\n%s", ok, err, out.String())
	}

	printed := map[string]map[string]int{} // workload → metric → times printed
	var resultLines []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		f := strings.Fields(line)
		switch f[0] {
		case "metric": // metric <workload> <name> <value> <unit> [n=<samples>]
			if len(f) < 5 {
				t.Errorf("short metric line %q", line)
				continue
			}
			if unit, named := units[f[2]]; !named {
				t.Errorf("%s: metric %q is not named in BENCHMARK.json", f[1], f[2])
			} else if f[4] != unit {
				t.Errorf("%s: %s printed with unit %q, want %q", f[1], f[2], f[4], unit)
			}
			if printed[f[1]] == nil {
				printed[f[1]] = map[string]int{}
			}
			printed[f[1]][f[2]]++
		case "check":
			if !strings.Contains(line, "failed=0") || !strings.Contains(line, "correct=true") {
				t.Errorf("verification failed: %s", line)
			}
		case "run", "class":
		default:
			if strings.HasPrefix(line, "{") {
				resultLines = append(resultLines, line)
			} else {
				t.Errorf("unexpected output line %q", line)
			}
		}
	}
	for _, w := range bf.Workloads {
		for name := range units {
			if n := printed[w.Name][name]; n != 1 {
				t.Errorf("%s: %s printed %d times, want once", w.Name, name, n)
			}
		}
	}

	// One machine-readable line per workload, carrying exactly the named
	// metrics; the end-to-end ones are never zero.
	if len(resultLines) != len(bf.Workloads) {
		t.Fatalf("%d result lines, want %d", len(resultLines), len(bf.Workloads))
	}
	for i, line := range resultLines {
		var res struct {
			Correct   bool  `json:"correct"`
			Attempted int64 `json:"attempted"`
			Failed    int64 `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("result line %d: %v", i, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(units) {
			t.Errorf("%s: correct=%v attempted=%d failed=%d with %d metrics, want %d",
				bf.Workloads[i].Name, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(units))
		}
		for _, m := range bf.EndToEnd {
			if v := res.Metrics[m.Name]; v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: %s = %v %s", bf.Workloads[i].Name, m.Name, v.Value, v.Unit)
			}
		}
	}

	// The layers separate: no hosting or extension span on local-authoring,
	// and spans written for all four workloads.
	trace, err := os.ReadFile(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	workloadsTraced := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(trace)), "\n") {
		var s struct {
			Workload, Name string
			Parent, Op     int
		}
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		workloadsTraced[s.Workload] = true
		if s.Workload == "local-authoring" && (strings.HasPrefix(s.Name, "hosting.") || strings.HasPrefix(s.Name, "extension.") || strings.HasPrefix(s.Name, "http.")) {
			t.Errorf("local-authoring recorded a %s span", s.Name)
		}
		if !strings.HasPrefix(s.Name, opSpanPrefix) && s.Op < 0 {
			t.Errorf("%s: span %s belongs to no operation", s.Workload, s.Name)
		}
	}
	if len(workloadsTraced) != len(bf.Workloads) {
		t.Errorf("trace covers %d workloads, want %d", len(workloadsTraced), len(bf.Workloads))
	}
	if _, err := os.Stat(filepath.Join(dir, "results.json")); err != nil {
		t.Error(err)
	}
	if left, _ := os.ReadDir(filepath.Join(dir, "data")); len(left) != 0 {
		t.Errorf("%d data directories left behind", len(left))
	}
}
