package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the program itself reads: the
// gated metrics with their bounds (self-check), and the names a test holds
// the program's own tables to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// selfcheckRounds is how many measurements each of the two sets holds. The
// sets are interleaved (A B A B …) and compared by their medians, the way a
// change is compared with its parent: on a shared sandbox a single pair of
// runs mostly compares two moments of the host.
const selfcheckRounds = 3

// selfcheck measures every configured workload in two interleaved sets —
// fresh data directory each time, same seed — and fails unless each
// end-to-end metric's median in the second set is within its BENCHMARK.json
// bound of the first: the benchmark must agree with itself before it may
// judge a change.
func selfcheck(cfg *config) (bool, error) {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("selfcheck needs BENCHMARK.json in the working directory: %w", err)
	}
	ok := true
	for _, name := range cfg.workloads {
		var sets [2]map[string][]float64
		for i := range sets {
			sets[i] = map[string][]float64{}
		}
		for round := 0; round < selfcheckRounds; round++ {
			for i := range sets {
				res := &result{Workload: name, Correct: true}
				if err := runMeasured(cfg, name, res); err != nil {
					return false, fmt.Errorf("%s: %w", name, err)
				}
				ok = ok && res.Correct
				for k, v := range res.EndToEnd {
					sets[i][k] = append(sets[i][k], v)
				}
			}
		}
		for _, m := range bf.EndToEnd {
			first, second := median(sets[0][m.Name]), median(sets[1][m.Name])
			worse := (second - first) / first
			if m.Better == "higher" {
				worse = (first - second) / first
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict, ok = "OUT OF BOUND", false
			}
			fmt.Fprintf(cfg.stdout, "selfcheck %s %s first=%s second=%s worse_by=%.4f bound=%.2f %s\n",
				name, m.Name, formatValue(first), formatValue(second), worse, m.Bound, verdict)
		}
	}
	return ok, nil
}
