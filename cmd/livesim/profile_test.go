package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// Both profile flags leave a gzipped pprof profile once the run stops.
func TestProfilesWriteBoth(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pb.gz"), filepath.Join(dir, "mem.pb.gz")
	defer func(c, m string) { *cpuProfile, *memProfile = c, m }(*cpuProfile, *memProfile)
	*cpuProfile, *memProfile = cpu, mem
	stop, err := startProfiles()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range []string{cpu, mem} {
		data, err := os.ReadFile(p)
		if err != nil || !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			t.Fatalf("%s: %d bytes (%v), want a gzipped profile", filepath.Base(p), len(data), err)
		}
	}
}
