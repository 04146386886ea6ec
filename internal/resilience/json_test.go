package resilience

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// DecodeJSON keeps every limit ReadBody had and refuses what json.Unmarshal
// refuses: a body over the limit, declared or not, a body shorter than it
// declared, and trailing data, whether the decoder buffered it or not.
func TestDecodeJSON(t *testing.T) {
	type msg struct {
		N int    `json:"n"`
		S string `json:"s"`
	}
	body := `{"n":7,"s":"seven"}`
	n := int64(len(body))
	for _, tc := range []struct {
		name     string
		body     string
		declared int64
		limit    int64
		ok       bool
	}{
		{"declared", body, n, 64, true},
		{"undeclared", body, -1, 64, true},
		{"declared zero", "", 0, 64, false},
		{"at the limit", body, n, n, true},
		{"undeclared at the limit", body, -1, n, true},
		{"declared over the limit", body, n, n - 1, false},
		{"undeclared over the limit", body, -1, n - 1, false},
		{"shorter than declared", body, n + 5, 64, false},
		{"trailing data", body + `{}`, -1, 64, false},
		{"trailing space", body + " \t\r\n", -1, 64, true},
		// The decoder reads ahead in blocks, so these end past its first.
		{"trailing data past the decoder's read", body + strings.Repeat(" ", 8<<10) + "x", -1, 16 << 10, false},
		{"trailing space past the decoder's read", body + strings.Repeat(" ", 8<<10), -1, 16 << 10, true},
		{"not JSON", "nope", -1, 64, false},
	} {
		var got msg
		err := DecodeJSON(strings.NewReader(tc.body), tc.declared, tc.limit, &got)
		if tc.ok && (err != nil || got != msg{7, "seven"}) {
			t.Errorf("%s: %+v, %v; want {7 seven}", tc.name, got, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := DecodeJSON(strings.NewReader(body), n, n-1, new(msg)); !errors.Is(err, errBodyTooLarge) {
		t.Errorf("declared over the limit: %v, want errBodyTooLarge", err)
	}
}

// A decoded value keeps nothing of the pooled buffer: the next body written
// into it leaves the first value as it was.
func TestDecodeJSONKeepsNothingPooled(t *testing.T) {
	var first, second struct {
		S   string `json:"s"`
		Raw []byte `json:"raw"`
	}
	if err := DecodeJSON(strings.NewReader(`{"s":"first","raw":"AQID"}`), -1, 64, &first); err != nil {
		t.Fatal(err)
	}
	if err := DecodeJSON(strings.NewReader(`{"s":"xxxxx","raw":"BAUG"}`), -1, 64, &second); err != nil {
		t.Fatal(err)
	}
	if first.S != "first" || !bytes.Equal(first.Raw, []byte{1, 2, 3}) {
		t.Fatalf("first value changed under the second decode: %+v", first)
	}
}

// TestDecodeJSONAllocBudget: a warm pooled decoder keeps its decode state,
// error context and scanner, so a decode allocates only the strings its value
// keeps: the city, where json.Unmarshal of the same bytes makes its state
// again on every call.
func TestDecodeJSONAllocBudget(t *testing.T) {
	if testutil.Race {
		t.Skip("sync.Pool drops puts under the race detector, so the count is not exact")
	}
	body := []byte(`{"user_id":7,"city":"New York","lat":40.71,"lon":-74.01}`)
	r := bytes.NewReader(body)
	var v struct {
		UserID uint64  `json:"user_id"`
		City   string  `json:"city"`
		Lat    float64 `json:"lat"`
		Lon    float64 `json:"lon"`
	}
	unmarshal := testing.AllocsPerRun(100, func() {
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
	})
	decode := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		if err := DecodeJSON(r, int64(len(body)), 1<<10, &v); err != nil {
			t.Fatal(err)
		}
	})
	if decode != 1 {
		t.Fatalf("DecodeJSON allocates %.0f times per body, want 1 (json.Unmarshal: %.0f)", decode, unmarshal)
	}
}

// A buffer goes back to the pool after a decode that succeeded within
// maxPooledJSON, and not after one that failed, whose decoder keeps its
// error or the bytes it stopped before, nor once it outgrew maxPooledJSON,
// by a body read into it, one decoded from it or one encoded into it.
func TestOutsizedJSONBufferNotPooled(t *testing.T) {
	big := `{"s":"` + strings.Repeat("x", maxPooledJSON) + `"}`
	decode := func(body string, declared int64) func() error {
		return func() error {
			var v struct {
				S string `json:"s"`
			}
			return DecodeJSON(strings.NewReader(body), declared, 1<<20, &v)
		}
	}
	for _, tc := range []struct {
		name   string
		use    func() error
		ok     bool
		pooled bool
	}{
		{"decoded", decode(`{"s":"x"}`, -1), true, true},
		{"over the limit", func() error { return DecodeJSON(strings.NewReader(big), -1, 8, new(any)) }, false, true},
		{"decoded outsized", decode(big, -1), true, false},
		{"decoded outsized, declared", decode(big, int64(len(big))), true, false},
		{"not JSON", decode(`{"s":`, -1), false, false},
		{"wrong type", decode(`{"s":7}`, -1), false, false},
		{"empty", decode("", -1), false, false},
		{"trailing data", decode(`{"s":"x"} {}`, -1), false, false},
		{"encoded outsized", func() error {
			WriteJSON(httptest.NewRecorder(), big)
			return nil
		}, true, false},
	} {
		b := jsonBufs.Get().(*jsonBuf)
		jsonBufs.Put(b)
		if err := tc.use(); (err == nil) != tc.ok {
			t.Errorf("%s: error %v", tc.name, err)
		}
		back := false
		for range 4 {
			if jsonBufs.Get().(*jsonBuf) == b {
				back = true
			}
		}
		// sync.Pool drops puts at random under the race detector, so there
		// only a buffer that must not come back is checked.
		if back != tc.pooled && !(tc.pooled && testutil.Race) {
			t.Errorf("%s: buffer came back from the pool: %v, want %v", tc.name, back, tc.pooled)
		}
	}
}

// WriteJSON answers the value with its Content-Type, and a value that does
// not encode with a 500 before any of its body.
func TestWriteJSON(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, map[string]int{"n": 7})
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" || rec.Body.String() != "{\"n\":7}\n" {
		t.Fatalf("got %d %q %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	rec = httptest.NewRecorder()
	WriteJSON(rec, map[string]any{"f": func() {}})
	if rec.Code != http.StatusInternalServerError || strings.Contains(rec.Body.String(), "{") {
		t.Fatalf("unencodable value: %d %q", rec.Code, rec.Body)
	}
}

// The clients' requests share their headers: identity encoding, and a JSON
// Content-Type on a JSON POST only.
func TestNewRequestHeaders(t *testing.T) {
	ctx := context.Background()
	get, err := NewRequest(ctx, http.MethodGet, "http://h/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	post, err := NewJSONRequest(ctx, "http://h/x", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if get.Header.Get("Accept-Encoding") != "identity" || get.Header.Get("Content-Type") != "" {
		t.Errorf("GET header %v", get.Header)
	}
	if post.Method != http.MethodPost || post.Header.Get("Accept-Encoding") != "identity" || post.Header.Get("Content-Type") != "application/json" {
		t.Errorf("POST %s header %v", post.Method, post.Header)
	}
	if data, _ := io.ReadAll(post.Body); string(data) != `{}` || post.ContentLength != 2 {
		t.Errorf("POST body %q, length %d", data, post.ContentLength)
	}
	if _, err := NewRequest(ctx, http.MethodGet, "http://h/%zz", nil); err == nil {
		t.Error("a URL that does not parse was accepted")
	}
}

// CutSegment reads a path's segments as http.ServeMux does.
func TestCutSegment(t *testing.T) {
	for _, tc := range []struct{ path, seg, rest string }{
		{"/", "", ""},
		{"/api", "api", ""},
		{"/api/", "api", "/"},
		{"/api/global", "api", "/global"},
		{"//x", "", "/x"},
		{"/ap%69/x", "api", "/x"},
		{"/a%2Fb/end", "a/b", "/end"},
		{"/a%zz/x", "a%zz", "/x"},
	} {
		if seg, rest := CutSegment(tc.path); seg != tc.seg || rest != tc.rest {
			t.Errorf("CutSegment(%q) = %q, %q; want %q, %q", tc.path, seg, rest, tc.seg, tc.rest)
		}
	}
}
