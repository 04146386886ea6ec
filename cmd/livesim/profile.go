package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile flags, for every mode: a CPU profile of the whole run, and the
// in-use heap as of a forced collection at exit (its alloc_space and
// alloc_objects samples cover the whole run). GODEBUG=memprofilerate=N sets
// the heap profile's sampling rate.
var (
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit, after a forced GC")
)

// startProfiles starts the CPU profile -cpuprofile names and returns what
// stops it and writes the -memprofile heap profile; main defers it, so a mode
// that returns leaves both files (one that exits on an error leaves neither
// complete).
func startProfiles() (stop func(), err error) {
	var cpu *os.File
	if *cpuProfile != "" {
		if cpu, err = os.Create(*cpuProfile); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "livesim: cpuprofile: %v\n", err)
			}
		}
		if *memProfile != "" {
			if err := writeHeapProfile(*memProfile); err != nil {
				fmt.Fprintf(os.Stderr, "livesim: memprofile: %v\n", err)
			}
		}
	}, nil
}

// writeHeapProfile writes the heap profile as of a collection forced now.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
