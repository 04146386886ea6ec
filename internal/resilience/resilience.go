// Package resilience supplies the failure-handling primitives the delivery
// path needs to keep working under the loss the paper's traces show it
// routinely operates under (§5.2 bursty uploads, §4.3 chunk roll-out):
// context-aware retry with jittered exponential backoff, a per-upstream
// circuit breaker, and a single-flight group that collapses concurrent
// identical pulls into one upstream request. Bentaleb et al. and the
// Peroni–Gorinsky pipeline survey both identify this layer — not the happy
// path — as what separates a latency model from a production system.
package resilience

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
)

// Policy bounds a retry loop. The zero value retries 3 times with a 10 ms
// base delay doubling to a 1 s cap and ±50% jitter.
type Policy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Zero means 3; 1 disables retries.
	MaxAttempts int
	// BaseDelay is the wait before the first retry. Zero means 10 ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. Zero means 1 s.
	MaxDelay time.Duration
	// Jitter is the fraction of each delay randomized symmetrically
	// around it (0.5 → delay uniform in [0.5d, 1.5d]). Negative disables
	// jitter; zero means 0.5.
	Jitter float64
	// Sleep is the wait between attempts, honouring ctx; nil means
	// clock.Real's. An owner with an injected clock passes that clock's Sleep.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	} else if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Sleep == nil {
		p.Sleep = clock.Real{}.Sleep
	}
	return p
}

// jitterRand supplies jitter uniforms in [0,1): a mutex-guarded xorshift64*,
// seeded constantly so retry timing is reproducible run to run (the fault
// injector, not the backoff, is the experiment's randomness).
var jitterRand = func() func() float64 {
	var mu sync.Mutex
	state := uint64(0x9e3779b97f4a7c15)
	return func() float64 {
		mu.Lock()
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		v := state * 0x2545f4914f6cdd1d
		mu.Unlock()
		return float64(v>>11) / (1 << 53)
	}
}()

// DrainClose reads what is left of an HTTP response body, up to a bound, and
// closes it. net/http returns a connection to the keep-alive pool only once
// its response body has been read to EOF: closing one unread — an error reply,
// or a success whose body the caller has no use for — discards the connection
// and the next request pays a dial, against a server that may just have said
// it is overloaded. Clients defer this instead of resp.Body.Close. A body that
// declared a length within the bound is drained as it is — net/http already
// stops it at that length — so only an undeclared or longer one pays for the
// bounding reader.
func DrainClose(resp *http.Response) {
	var body io.Reader = resp.Body
	if n := resp.ContentLength; n < 0 || n > maxDrain {
		body = io.LimitReader(resp.Body, maxDrain)
	}
	_, _ = io.Copy(io.Discard, body) // best effort: a failed drain only costs the connection
	resp.Body.Close()
}

// maxDrain bounds what DrainClose reads to save a connection.
const maxDrain = 64 << 10

// ReadBody reads a body that declared n bytes (n ≤ 0: undeclared or unknown),
// at most limit of them. A declared length within the limit is read into one
// buffer of exactly that size, where io.ReadAll's doubling would allocate
// several; anything else falls back to the capped ReadAll.
func ReadBody(body io.Reader, n, limit int64) ([]byte, error) {
	if n > 0 && n <= limit {
		data := make([]byte, n)
		_, err := io.ReadFull(body, data)
		return data, err
	}
	return io.ReadAll(io.LimitReader(body, limit))
}

// errBodyTooLarge reports a body longer than its reader's limit.
var errBodyTooLarge = errors.New("resilience: body over limit")

// jsonBuf is one pooled JSON body: the buffer a body is read into or
// encoded into, the encoder bound to it for the latter, and a decoder that
// reads the former through rd. A warm decoder keeps its decode state, error
// context and scanner, so a decode allocates only what the value keeps.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
	rd  bytes.Reader
	dec *json.Decoder
}

var jsonBufs = sync.Pool{New: func() any {
	b := new(jsonBuf)
	b.enc = json.NewEncoder(&b.buf)
	b.dec = json.NewDecoder(&b.rd)
	return b
}}

// maxPooledJSON is the largest buffer that goes back to the pool: one
// outsized body must not keep its memory for good, in the buffer or in the
// decoder's own, which grows to the body it read.
const maxPooledJSON = 64 << 10

func putJSONBuf(b *jsonBuf) {
	if b.buf.Cap() > maxPooledJSON {
		return
	}
	b.buf.Reset()
	b.rd.Reset(nil)
	jsonBufs.Put(b)
}

// DecodeJSON reads a JSON body that declared n bytes (n ≤ 0: undeclared or
// unknown) into v through a pooled buffer and decoder. A body over limit is
// an error, whether its declared length says so or its bytes do; a declared
// length is read with io.ReadFull, so a body shorter than it declared is one
// too. It accepts what json.Unmarshal accepts: an empty body and anything but
// space after the value are errors. The decoder copies everything a value
// keeps, so the buffer goes back to the pool, unless its decode failed.
func DecodeJSON(body io.Reader, n, limit int64, v any) error {
	b := jsonBufs.Get().(*jsonBuf)
	reusable, err := b.decode(body, n, limit, v)
	if reusable {
		putJSONBuf(b)
	}
	return err
}

// decode is DecodeJSON through b. It reports whether b may decode another
// body: a decoder that failed keeps its error, and one that stopped before
// trailing bytes keeps them buffered, so after a failed decode it may not.
func (b *jsonBuf) decode(body io.Reader, n, limit int64, v any) (reusable bool, err error) {
	if n > limit {
		return true, errBodyTooLarge
	}
	var data []byte
	if n > 0 {
		b.buf.Grow(int(n))
		data = b.buf.AvailableBuffer()[:n]
		if _, err := io.ReadFull(body, data); err != nil {
			return true, err
		}
	} else {
		if _, err := b.buf.ReadFrom(io.LimitReader(body, limit+1)); err != nil {
			return true, err
		}
		if data = b.buf.Bytes(); int64(len(data)) > limit {
			return true, errBodyTooLarge
		}
	}
	b.rd.Reset(data)
	if err := b.dec.Decode(v); err != nil {
		return false, err
	}
	if !b.restIsSpace() {
		return false, errTrailingData
	}
	return true, nil
}

// errTrailingData reports bytes other than space after a body's value.
var errTrailingData = errors.New("resilience: data after the JSON value")

// restIsSpace reports whether everything after the decoded value is JSON
// space: what the decoder buffered past the value and what it has not read.
// The value's end is not found from the decoder's InputOffset: that counts
// from the first body the decoder read, not from this one.
func (b *jsonBuf) restIsSpace() bool {
	return onlySpace(b.dec.Buffered().(*bytes.Reader)) && onlySpace(&b.rd)
}

// onlySpace reads r to its end and reports whether all of it is JSON space.
func onlySpace(r *bytes.Reader) bool {
	for {
		c, err := r.ReadByte()
		if err != nil {
			return true
		}
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return false
		}
	}
}

// contentTypeJSON is the Content-Type of every JSON body, ready-made:
// assigning it directly (the key is already canonical) spares each request
// and response the []string http.Header.Set builds.
var contentTypeJSON = []string{"application/json"}

// WriteJSON answers v as a 200 JSON body, encoded through a pooled buffer
// and written in one call. A value that does not encode is a 500, sent
// before anything of the body.
func WriteJSON(w http.ResponseWriter, v any) {
	b := jsonBufs.Get().(*jsonBuf)
	defer putJSONBuf(b)
	if err := b.enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header()["Content-Type"] = contentTypeJSON
	_, _ = w.Write(b.buf.Bytes()) // a failed write is the client gone; nothing to tell it
}

// Request headers of the platform's clients, shared read-only by every
// request they send: http.Client and Transport only read a request's
// header, and Client.Do clones it before following a redirect. Nothing here
// compresses, and a request that names no encoding makes Transport build a
// header map per request to ask for gzip.
var (
	plainHeader = http.Header{"Accept-Encoding": {"identity"}}
	jsonHeader  = http.Header{"Accept-Encoding": {"identity"}, "Content-Type": contentTypeJSON}
)

// NewRequest is http.NewRequestWithContext for the platform's clients, with
// the shared header that asks for an identity encoding. The caller must not
// write to req.Header: one that needs a header of its own sets req.Header to
// a clone first.
func NewRequest(ctx context.Context, method, url string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err == nil {
		req.Header = plainHeader
	}
	return req, err
}

// NewJSONRequest is NewRequest for a POST of a JSON body: the shared header
// also declares its Content-Type.
func NewJSONRequest(ctx context.Context, url string, body []byte) (*http.Request, error) {
	req, err := NewRequest(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err == nil {
		req.Header = jsonHeader
	}
	return req, err
}

// CutSegment splits an escaped URL path that starts with "/" into its first
// segment, unescaped, and the rest, still escaped, which starts with "/" or
// is empty. It reads a path as http.ServeMux does: an escaped slash stays
// inside its segment, and an escape that does not decode is left as it is.
// Only a segment with an escape in it allocates.
func CutSegment(path string) (seg, rest string) {
	seg, rest = path[1:], ""
	if i := strings.IndexByte(seg, '/'); i >= 0 {
		seg, rest = seg[:i], seg[i:]
	}
	if strings.IndexByte(seg, '%') >= 0 {
		if u, err := url.PathUnescape(seg); err == nil {
			seg = u
		}
	}
	return seg, rest
}

// ParseRetryAfter reads a Retry-After header value: delta-seconds, or an
// HTTP date taken against now. Absent, unparsable, negative and past values
// are 0. A count of seconds beyond the longest time.Duration saturates there
// instead of wrapping negative, so a server asking for the longest back-off
// gets the caller's cap, not an immediate retry.
func ParseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	// Out of range, ParseInt still returns the bound of the value's sign.
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil || errors.Is(err, strconv.ErrRange) {
		switch {
		case secs <= 0:
			return 0
		case secs > math.MaxInt64/int64(time.Second):
			return math.MaxInt64
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		return max(at.Sub(now), 0)
	}
	return 0
}

// FormatRetryAfter writes a wait as a Retry-After value, ParseRetryAfter's
// inverse: whole seconds, rounded up by quotient and remainder so no wait
// overflows — the longest time.Duration, where ParseRetryAfter saturates,
// goes out as a count that reads back saturated, not as "retry now". A zero
// or negative wait is "0".
func FormatRetryAfter(d time.Duration) string {
	secs := max(int64(d/time.Second), 0)
	if d%time.Second > 0 {
		secs++
	}
	return strconv.FormatInt(secs, 10)
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Retry returns it immediately instead of retrying —
// for terminal conditions like hls.ErrNotFound, where retrying an absent
// broadcast only adds load to a struggling origin.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err was marked with Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Delay returns the backoff before retry attempt n (n=0 → before the first
// retry), jittered. Exposed so reconnect loops can share the schedule.
func (p Policy) Delay(n int) time.Duration { return p.withDefaults().delay(n) }

// delay is Delay on a policy whose defaults are already filled: filling them
// twice would read the zero that "jitter disabled" becomes as "unset".
func (p Policy) delay(n int) time.Duration {
	d := float64(p.BaseDelay)
	for i := 0; i < n; i++ {
		d *= 2
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		d *= 1 + p.Jitter*(2*jitterRand()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Retry runs op until it succeeds, returns a Permanent error, exhausts the
// policy, or ctx is done. The last error is returned, wrapped with the
// attempt count when the budget ran out.
func Retry(ctx context.Context, p Policy, op func(ctx context.Context) error) error {
	p = p.withDefaults()
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := op(ctx)
		if err == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return pe.err
		}
		lastErr = err
		// Only the parent context ending stops the loop: a per-attempt
		// deadline expiring inside op (a hung upstream) is exactly the
		// transient condition retries exist for.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if attempt == p.MaxAttempts-1 {
			break
		}
		if serr := p.Sleep(ctx, p.delay(attempt)); serr != nil {
			return serr
		}
	}
	return fmt.Errorf("resilience: %d attempts: %w", p.MaxAttempts, lastErr)
}

// RetryValue is Retry for operations returning a value.
func RetryValue[T any](ctx context.Context, p Policy, op func(ctx context.Context) (T, error)) (T, error) {
	var out T
	err := Retry(ctx, p, func(ctx context.Context) error {
		v, err := op(ctx)
		if err == nil {
			out = v
		}
		return err
	})
	return out, err
}
