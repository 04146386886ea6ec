// Command bench is the repository's benchmark: four count-driven, closed-loop
// workloads over the livestreaming platform, four gated end-to-end metrics per
// workload, and a separate traced run that attributes time and counts to each
// module from outside its public functions. README.md explains what each
// workload is for and how to read the numbers; BENCHMARK.json is the contract
// the driver checks it against.
//
// Usage:
//
//	bench -workload <name|all> -seed <n> -seconds <s> -trace <0|1> [-trace-out spans.json]
//	bench -workload all -repeat 5 -spread     (from the repository root: reads BENCHMARK.json)
//
// The last line on standard output of each workload's run is one JSON object
// {correct, attempted, failed, metrics}; everything else goes to standard
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// maxProcs caps GOMAXPROCS so a many-core box does not turn the benchmark
// into a different (less contended) experiment than the reference one.
const maxProcs = 4

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run: rtmp_fanout, hls_poll, broadcast_churn, simday or all")
		seed         = flag.Uint64("seed", simGoldenSeed, "seed for every generated input")
		seconds      = flag.Int("seconds", simGoldenSeconds, "length of the measured part; op counts scale with it")
		trace        = flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
		traceOut     = flag.String("trace-out", "", "with -trace 1: write the recorded spans to this file as JSON (to <file>.<workload> with -workload all)")
		drivers      = flag.Int("drivers", 0, "load-driving connections/workers; 0 means nproc")
		repeat       = flag.Int("repeat", 5, "with -spread: runs per set")
		spread       = flag.Bool("spread", false, "run two interleaved sets of -repeat runs and compare them to the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	names := workloadNames
	if *workloadFlag != "all" {
		if workloads[*workloadFlag] == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadFlag)
			os.Exit(2)
		}
		names = []string{*workloadFlag}
	}
	if *spread {
		os.Exit(runSpread(names, *seed, *seconds, *repeat))
	}

	if *workloadFlag == "all" {
		os.Exit(runEach(names, *seed, *seconds, *trace, *traceOut, *drivers))
	}

	// Pin what would otherwise vary with the environment.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(nproc, maxProcs))
	debug.SetGCPercent(100)
	if *drivers <= 0 {
		*drivers = nproc
	}

	name := names[0]
	p := params{
		seed:    *seed,
		seconds: *seconds,
		drivers: *drivers,
		// Three times the expected run (set-ups included) and then the rest
		// counts as failed; the watchdog below is the last resort that keeps
		// a wedged run inside the driver's 180 s.
		deadline: time.Now().Add(3 * time.Duration(*seconds+10) * time.Second),
	}
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded 170 s, aborting\n", name)
		os.Exit(3)
	})
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(name, p, *traceOut)
	} else {
		res, err = runUntraced(name, p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: workload=%s seed=%d seconds=%d trace=%d attempted=%d failed=%d\n",
		name, *seed, *seconds, *trace, res.Attempted, res.Failed)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if float64(res.Failed) > maxFailShare*float64(res.Attempted) {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed, above %.1f %%\n",
			name, res.Failed, res.Attempted, maxFailShare*100)
		os.Exit(1)
	}
}

// child is this binary running one workload in a process of its own, with
// standard error passed through.
func child(self, name string, seed uint64, seconds, trace int, more ...string) *exec.Cmd {
	cmd := exec.Command(self, append([]string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}, more...)...)
	cmd.Stderr = os.Stderr
	return cmd
}

// runEach runs the named workloads one after the other, each in a process of
// its own: set-up time is measured from a fresh start and peak RSS is a
// process-wide high-water mark, so neither survives sharing a process with
// the workload before. Each child prints its own result line; the exit code
// is the first child's that failed.
func runEach(names []string, seed uint64, seconds, trace int, traceOut string, drivers int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	exit := 0
	for _, name := range names {
		cmd := child(self, name, seed, seconds, trace, "-drivers", strconv.Itoa(drivers))
		if traceOut != "" {
			cmd.Args = append(cmd.Args, "-trace-out", traceOut+"."+name)
		}
		cmd.Stdout = os.Stdout
		if err := cmd.Run(); err != nil && exit == 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			exit = 1
		}
	}
	return exit
}
