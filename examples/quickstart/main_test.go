package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// TestQuickstart runs the README's first command end to end: every step
// reports, and the run leaves no goroutine behind.
func TestQuickstart(t *testing.T) {
	testutil.CheckGoroutines(t)
	var out bytes.Buffer
	if err := run(context.Background(), &out); err != nil {
		t.Fatalf("run: %v\noutput so far:\n%s", err, out.String())
	}
	for _, want := range []string{
		"platform up: http://",
		"first viewer routed to: rtmp\n",
		"RTMP viewer: ",
		"HLS edge has ",
		"downloaded chunk ",
		"interactions: 1 comment(s), 1 heart(s)\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
