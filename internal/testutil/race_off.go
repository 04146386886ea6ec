//go:build !race

package testutil

// Race reports whether the race detector is on; see race_on.go.
const Race = false
