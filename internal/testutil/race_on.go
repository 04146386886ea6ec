//go:build race

package testutil

// Race reports whether the race detector is on. Under it sync.Pool drops a
// share of what is put back, so a budget that counts allocations through a
// pooled path (encoding/json's encoder state, for one) is not exact.
const Race = true
