package faults

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// faultyRoundTripper injects faults into an HTTP client — the viewer-side
// poll and message hops of the delivery path.
type faultyRoundTripper struct {
	inj  *Injector
	next http.RoundTripper
}

// RoundTripper wraps next (nil means http.DefaultTransport) so requests may
// fail with ErrInjected, be delayed, or have their response body truncated
// mid-transfer.
func (i *Injector) RoundTripper(next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &faultyRoundTripper{inj: i, next: next}
}

// Client returns an *http.Client whose transport carries fault injection.
func (i *Injector) Client(base *http.Client) *http.Client {
	var c http.Client
	if base != nil {
		c = *base
	}
	c.Transport = i.RoundTripper(c.Transport)
	return &c
}

// RoundTrip implements http.RoundTripper.
func (t *faultyRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if d := t.inj.maybeLatency(); d > 0 {
		if err := sleep(req.Context(), d); err != nil {
			return nil, err
		}
	}
	if t.inj.roll(t.inj.overloadRate()) {
		t.inj.stats.Overloads.Add(1)
		return t.overloadResponse(req), nil
	}
	if t.inj.shouldError() {
		return nil, fmt.Errorf("faults: roundtrip %s: %w", req.URL.Path, ErrInjected)
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.Body != nil && t.inj.roll(t.inj.partialReadRate()) {
		t.inj.stats.PartialReads.Add(1)
		resp.Body = &truncatedBody{ReadCloser: resp.Body, remaining: 1}
	}
	return resp, nil
}

// overloadResponse synthesizes the 503 + Retry-After an overloaded edge
// sheds with, without the request reaching the wire.
func (t *faultyRoundTripper) overloadResponse(req *http.Request) *http.Response {
	secs := int(math.Ceil(t.inj.overloadRetryAfter().Seconds()))
	if secs < 1 {
		secs = 1
	}
	h := make(http.Header)
	h.Set("Retry-After", strconv.Itoa(secs))
	return &http.Response{
		Status:     "503 Service Unavailable (injected)",
		StatusCode: http.StatusServiceUnavailable,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     h,
		Body:       io.NopCloser(strings.NewReader("injected overload")),
		Request:    req,
	}
}

// truncatedBody lets a bounded number of bytes through, then fails the
// read — the partial transfer a dropped edge connection produces.
type truncatedBody struct {
	io.ReadCloser
	remaining int
}

// Read implements io.Reader.
func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, fmt.Errorf("faults: body truncated: %w", ErrInjected)
	}
	if len(p) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.ReadCloser.Read(p)
	b.remaining -= n
	return n, err
}
