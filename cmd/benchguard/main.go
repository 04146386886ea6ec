// Command benchguard runs the delivery hot-path benchmarks (BenchmarkFanout,
// BenchmarkEdgePoll, BenchmarkIngest, BenchmarkControlRecovery) and fails
// when allocations per operation regress past the recorded baselines in
// BENCH_fanout.json. It guards the PR-3 hot-path work (encode-once fan-out,
// by-reference edge serving), the metrics layer's zero-alloc promise, the PR-6
// journaling budget (origin ingest with the write-ahead journal enabled must
// stay at its recorded allocs/frame — the same as with it off — so a journal
// append that allocates or syncs on the caller's path shows up here as an
// ingest regression), and the PR-7
// control-plane recovery path (full journal replay of a 256-record control
// log; a replay that re-journals or decodes lazily shows up here).
//
// It also runs the scale-engine benchmarks (BenchmarkWheel,
// BenchmarkViewerEngine) against BENCH_scale.json: per-event allocation
// budgets with a percentage tolerance, plus the timer wheel's
// minimum ns/event speedup over the Virtual clock's heap at one million
// pending timers — the PR-8 invariant that the event engine stays O(1).
//
// Allocations are the guarded signal because they are deterministic for a
// fixed code path; ns/op depends on the host and is reported but not judged
// (the wheel-vs-heap ratio is judged instead of raw ns, for the same reason).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// tolerance is how many extra allocs/op a benchmark may show over its
// baseline before benchguard fails. Allocation counts are deterministic in
// steady state but fixed-count runs include warm-up effects (pool fills,
// map growth), so exact matching would flap.
const tolerance = 2

type measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type baselineFile struct {
	Fanout   map[string]json.RawMessage `json:"fanout"`
	EdgePoll map[string]json.RawMessage `json:"edge_poll"`
	Ingest   map[string]json.RawMessage `json:"ingest"`
	Recovery map[string]json.RawMessage `json:"control_recovery"`
}

type fanoutEntry struct {
	After measurement `json:"after"`
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkFanout/viewers=10-8  20000  23543 ns/op  22.85 MB/s  577 B/op  1 allocs/op
//
// The MB/s column appears only for benchmarks that call b.SetBytes.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op\s+(?:[\d.]+ MB/s\s+)?([\d.]+) B/op\s+(\d+) allocs/op`)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	raw, err := os.ReadFile("BENCH_fanout.json")
	if err != nil {
		return err
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse BENCH_fanout.json: %w", err)
	}

	// budgets maps the full benchmark name (cpu suffix stripped) to the
	// baseline allocs/op it must stay within.
	budgets := make(map[string]float64)
	for sub, rawEntry := range base.Fanout {
		if !strings.HasPrefix(sub, "viewers=") {
			continue // skip prose keys like "allocs_reduction"
		}
		var e fanoutEntry
		if err := json.Unmarshal(rawEntry, &e); err != nil {
			return fmt.Errorf("fanout %q: %w", sub, err)
		}
		budgets["BenchmarkFanout/"+sub] = e.After.AllocsPerOp
	}
	for sub, rawEntry := range base.EdgePoll {
		if !strings.HasPrefix(sub, "broadcasts=") {
			continue
		}
		var e fanoutEntry
		if err := json.Unmarshal(rawEntry, &e); err != nil {
			return fmt.Errorf("edge_poll %q: %w", sub, err)
		}
		budgets["BenchmarkEdgePoll/"+sub] = e.After.AllocsPerOp
	}
	for sub, rawEntry := range base.Ingest {
		if !strings.HasPrefix(sub, "journal=") {
			continue
		}
		var e fanoutEntry
		if err := json.Unmarshal(rawEntry, &e); err != nil {
			return fmt.Errorf("ingest %q: %w", sub, err)
		}
		budgets["BenchmarkIngest/"+sub] = e.After.AllocsPerOp
	}
	for sub, rawEntry := range base.Recovery {
		if !strings.HasPrefix(sub, "records=") {
			continue
		}
		var e fanoutEntry
		if err := json.Unmarshal(rawEntry, &e); err != nil {
			return fmt.Errorf("control_recovery %q: %w", sub, err)
		}
		budgets["BenchmarkControlRecovery/"+sub] = e.After.AllocsPerOp
	}
	if len(budgets) == 0 {
		return fmt.Errorf("no baselines found in BENCH_fanout.json")
	}

	cmd := exec.Command("go", "test", "-run", "^$", "-bench", "Fanout|EdgePoll|Ingest|ControlRecovery",
		"-benchmem", "-benchtime", "2000x", ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("bench run failed: %w\n%s", err, out)
	}

	failures := 0
	seen := make(map[string]bool)
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := m[1]
		budget, ok := budgets[name]
		if !ok {
			continue
		}
		seen[name] = true
		allocs, _ := strconv.ParseFloat(m[4], 64)
		verdict := "ok"
		if allocs > budget+tolerance {
			verdict = "REGRESSION"
			failures++
		}
		fmt.Printf("%-40s allocs/op=%g baseline=%g %s (ns/op=%s)\n", name, allocs, budget, verdict, m[2])
	}
	var missing []string
	for name := range budgets {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("benchmarks missing from run output: %s", strings.Join(missing, ", "))
	}
	if failures > 0 {
		return fmt.Errorf("%d benchmark(s) regressed past baseline+%d allocs/op", failures, tolerance)
	}
	fmt.Println("benchguard: all hot-path alloc budgets hold")
	return runScale()
}

type scaleMeasurement struct {
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

type scaleEntry struct {
	After scaleMeasurement `json:"after"`
}

type scaleFile struct {
	Wheel        map[string]json.RawMessage `json:"wheel"`
	ViewerEngine map[string]json.RawMessage `json:"viewer_engine"`
	TolerancePct float64                    `json:"tolerance_pct"`
}

// scaleBenchLine matches one scale-benchmark result line; the per-event
// metrics follow ns/op as ReportMetric pairs, e.g.
//
//	BenchmarkWheel/engine=wheel/pending=1048576  1  19091485 ns/op  0.22 allocs/event  4624123 events/sec  216.3 ns/event
var scaleBenchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+[\d.]+ ns/op(.*)$`)
var metricPair = regexp.MustCompile(`([\d.eE+]+) (allocs/event|ns/event|events/sec)`)

// runScale judges the scale-engine benchmarks against BENCH_scale.json:
// allocs/event within a percentage tolerance of baseline, and the wheel's
// ns/event speedup over the Virtual heap at or above the recorded floor.
func runScale() error {
	raw, err := os.ReadFile("BENCH_scale.json")
	if err != nil {
		return err
	}
	var base scaleFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse BENCH_scale.json: %w", err)
	}

	budgets := make(map[string]float64) // name -> baseline allocs/event
	addBudgets := func(bench, keyPrefix string, entries map[string]json.RawMessage) error {
		for sub, rawEntry := range entries {
			if !strings.HasPrefix(sub, keyPrefix) {
				continue // skip prose keys like "note" and "min_speedup"
			}
			var e scaleEntry
			if err := json.Unmarshal(rawEntry, &e); err != nil {
				return fmt.Errorf("%s %q: %w", bench, sub, err)
			}
			budgets[bench+"/"+sub] = e.After.AllocsPerEvent
		}
		return nil
	}
	if err := addBudgets("BenchmarkWheel", "engine=", base.Wheel); err != nil {
		return err
	}
	if err := addBudgets("BenchmarkViewerEngine", "viewers=", base.ViewerEngine); err != nil {
		return err
	}
	var minSpeedup float64
	if err := json.Unmarshal(base.Wheel["min_speedup"], &minSpeedup); err != nil {
		return fmt.Errorf("wheel min_speedup: %w", err)
	}
	if len(budgets) == 0 || base.TolerancePct <= 0 {
		return fmt.Errorf("no scale baselines found in BENCH_scale.json")
	}

	// Fixed single-iteration runs: each sub-benchmark already does a fixed
	// amount of work (a full 8M-event drain / a full broadcast) and reports
	// per-event metrics, so more iterations would only add wall time.
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", "BenchmarkWheel$|BenchmarkViewerEngine", "-benchtime", "1x", ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("scale bench run failed: %w\n%s", err, out)
	}

	metrics := make(map[string]map[string]float64)
	for _, line := range strings.Split(string(out), "\n") {
		m := scaleBenchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		vals := make(map[string]float64)
		for _, pair := range metricPair.FindAllStringSubmatch(m[2], -1) {
			v, _ := strconv.ParseFloat(pair[1], 64)
			vals[pair[2]] = v
		}
		metrics[m[1]] = vals
	}

	failures := 0
	var missing []string
	for name, budget := range budgets {
		vals, ok := metrics[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		allocs := vals["allocs/event"]
		limit := budget * (1 + base.TolerancePct/100)
		verdict := "ok"
		if allocs > limit {
			verdict = "REGRESSION"
			failures++
		}
		fmt.Printf("%-50s allocs/event=%.3f baseline=%.3f %s (ns/event=%.1f)\n",
			name, allocs, budget, verdict, vals["ns/event"])
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("scale benchmarks missing from run output: %s", strings.Join(missing, ", "))
	}

	const wheelName = "BenchmarkWheel/engine=wheel/pending=1048576"
	const heapName = "BenchmarkWheel/engine=virtual/pending=1048576"
	wheelNs := metrics[wheelName]["ns/event"]
	heapNs := metrics[heapName]["ns/event"]
	if wheelNs <= 0 || heapNs <= 0 {
		return fmt.Errorf("missing ns/event for the wheel speedup check")
	}
	speedup := heapNs / wheelNs
	verdict := "ok"
	if speedup < minSpeedup {
		verdict = "REGRESSION"
		failures++
	}
	fmt.Printf("%-50s speedup=%.1fx floor=%gx %s\n", "wheel vs virtual heap @1M pending", speedup, minSpeedup, verdict)

	if failures > 0 {
		return fmt.Errorf("%d scale benchmark(s) regressed past BENCH_scale.json", failures)
	}
	fmt.Println("benchguard: scale-engine budgets hold")
	return nil
}
