package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// The noise self-check: the benchmark measured against itself. Two sets of
// runs of the same binary, interleaved A, B, A, B, … and each with its own
// seed, must agree within the bound BENCHMARK.json gives each metric, and
// (the driver's rule, setup_s excepted) the runs' interquartile spread must
// stay inside that bound too; otherwise the benchmark could not tell a
// regression from its own noise.

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
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

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver uses.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// runOnce runs one workload in a fresh process — set-up time and peak RSS
// are per-process quantities — and returns its end-to-end metrics.
func runOnce(self, name string, seed uint64, seconds int) (map[string]float64, error) {
	out, err := child(self, name, seed, seconds, 0).Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: %d of %d ops failed", name, seed, res.Failed, res.Attempted)
	}
	m := make(map[string]float64, len(res.Metrics))
	for k, v := range res.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

// runSpread returns the process exit code: 0 when every set-A-vs-set-B gap
// and every spread but setup_s's is inside its metric's bound.
func runSpread(names []string, seed uint64, seconds, repeat int) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: spread:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: spread:", err)
		return 2
	}
	bad := 0
	for _, name := range names {
		sets := [2]map[string][]float64{{}, {}}
		for k := 0; k < 2*repeat; k++ {
			m, err := runOnce(self, name, seed+uint64(k), seconds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench: spread:", err)
				return 1
			}
			for metric, v := range m {
				sets[k%2][metric] = append(sets[k%2][metric], v)
			}
		}
		fmt.Printf("%s  (%d+%d runs, seeds %d..%d, %d s)\n", name, repeat, repeat, seed, seed+uint64(2*repeat)-1, seconds)
		fmt.Printf("  %-20s %12s %12s %12s %8s %8s %7s\n", "metric", "median", "q1", "q3", "iqr/med", "A-vs-B", "bound")
		for _, e := range bf.EndToEnd {
			all := append(append([]float64(nil), sets[0][e.Name]...), sets[1][e.Name]...)
			q1, q3 := quartiles(all)
			med := median(all)
			a, b := median(sets[0][e.Name]), median(sets[1][e.Name])
			gap := (b - a) / a
			if gap < 0 {
				gap = -gap
			}
			iqr := (q3 - q1) / med
			verdict := ""
			switch {
			case gap > e.Bound:
				verdict = "  GAP EXCEEDS BOUND"
				bad++
			case e.Name == "setup_s":
			case iqr > e.Bound:
				verdict = "  SPREAD EXCEEDS BOUND"
				bad++
			case iqr > e.Bound/3:
				verdict = "  (spread above a third of the bound)"
			}
			fmt.Printf("  %-20s %12.5g %12.5g %12.5g %7.2f%% %7.2f%% %6.0f%%%s\n",
				e.Name, med, q1, q3, iqr*100, gap*100, e.Bound*100, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "bench: spread: %d metric × workload pairs disagree with themselves by more than their bound\n", bad)
		return 1
	}
	return 0
}
