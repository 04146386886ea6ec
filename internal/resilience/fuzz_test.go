package resilience_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/pubsub"
	"repro/internal/resilience"
)

// fuzzRecord holds one of each kind of value the platform's bodies carry,
// and the two enums that decode to their constants.
type fuzzRecord struct {
	S       string                   `json:"s"`
	N       int64                    `json:"n"`
	U       uint8                    `json:"u"`
	F       float64                  `json:"f"`
	Ptr     *string                  `json:"ptr"`
	Nest    [][]int                  `json:"nest"`
	Words   []string                 `json:"words"`
	Raw     []byte                   `json:"raw"`
	At      time.Time                `json:"at"`
	M       map[string]int           `json:"m"`
	Kind    pubsub.Kind              `json:"kind"`
	Proto   control.Protocol         `json:"proto"`
	Kinds   []pubsub.Kind            `json:"kinds"`
	ByProto map[control.Protocol]int `json:"by_proto"`
}

// fuzzShadow is fuzzRecord with the enums as plain strings, which decode
// as the enums did before they had an UnmarshalText.
type fuzzShadow struct {
	S       string         `json:"s"`
	N       int64          `json:"n"`
	U       uint8          `json:"u"`
	F       float64        `json:"f"`
	Ptr     *string        `json:"ptr"`
	Nest    [][]int        `json:"nest"`
	Words   []string       `json:"words"`
	Raw     []byte         `json:"raw"`
	At      time.Time      `json:"at"`
	M       map[string]int `json:"m"`
	Kind    string         `json:"kind"`
	Proto   string         `json:"proto"`
	Kinds   []string       `json:"kinds"`
	ByProto map[string]int `json:"by_proto"`
}

// fuzzTargets are the types a fuzzed body decodes into: the record, the
// platform's own bodies, and an untyped value.
var fuzzTargets = []func() any{
	func() any { return new(fuzzRecord) },
	func() any { return new(pubsub.Event) },
	func() any { return new([]pubsub.Event) },
	func() any { return new(control.ViewerGrant) },
	func() any { return new(any) },
	func() any { return new(pubsub.Kind) },
	func() any { return new(control.Protocol) },
	func() any { return new([][]byte) },
}

// FuzzDecodeJSON: DecodeJSON accepts exactly what json.Unmarshal accepts
// and, when both accept, decodes the same value. Each pair of bodies goes
// through one decoder, as the pool hands it on, so what one body leaves in
// the decoder must not change how the next decodes; a first value must not
// change under the second decode. The enums decode as plain strings did.
func FuzzDecodeJSON(f *testing.F) {
	for _, seed := range []struct {
		sel           uint8
		first, second string
	}{
		{0x00, `{"s":"a","n":-3,"u":7,"f":1.5e3,"ptr":"p","nest":[[1],[2,3]],"words":["x"],"raw":"AQID","at":"2016-02-01T10:00:00Z","m":{"k":1},"kind":"heart","proto":"hls","kinds":["comment","x"],"by_proto":{"rtmp":1,"rtmps":2}}`, `{"kind":null,"proto":7}`},
		{0x11, `{"seq":3,"broadcast_id":"b1","user_id":"u","kind":"comment","text":"hi"}` + "\n", `{"kind":"heart"}`},
		{0x23, `[{"kind":"heart"},{"kind":"other"}]`, `{"protocol":"rtmps","ca_pem":"AQ=="}`},
		{0x44, "1\n", "2"},
		{0x56, `"heart" `, `"hls"`},
		{0x70, `[["AQ=="],[]]`, `{} x`},
		{0x00, "", "  "},
		{0x44, `{"a":[1,{"b":null}]}  `, `true`},
		{0x00, `{"s":"é\ud800"}`, `{"u":300}`},
		{0x44, "{}" + strings.Repeat(" ", 600) + "x", "[]" + strings.Repeat("\n", 600)},
	} {
		f.Add(seed.sel, []byte(seed.first), []byte(seed.second), true)
	}
	f.Fuzz(func(t *testing.T, sel uint8, first, second []byte, declared bool) {
		decode := resilience.NewJSONDecoder()
		var kept, keptWant any
		for i, body := range [][]byte{first, second} {
			newTarget := fuzzTargets[int(sel>>(4*i)&0xf)%len(fuzzTargets)]
			want, got := newTarget(), newTarget()
			wantErr := json.Unmarshal(body, want)
			n := int64(-1)
			if declared {
				n = int64(len(body))
			}
			reusable, err := decode(body, n, 1<<20, got)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("body %d %q into %T: DecodeJSON error %v, json.Unmarshal error %v", i, body, got, err, wantErr)
			}
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("body %d %q into %T: DecodeJSON %#v, json.Unmarshal %#v", i, body, got, got, want)
			}
			if r, ok := got.(*fuzzRecord); ok {
				checkShadow(t, body, r, wantErr)
			}
			if !reusable {
				decode = resilience.NewJSONDecoder() // as DecodeJSON drops it
			}
			if i == 0 && err == nil {
				kept, keptWant = got, want
			}
		}
		if kept != nil && !reflect.DeepEqual(kept, keptWant) {
			t.Fatalf("the first value changed under the second decode: %#v, want %#v", kept, keptWant)
		}
	})
}

// checkShadow: the record's enums accept exactly what plain strings accept,
// and decode to the same text.
func checkShadow(t *testing.T, body []byte, r *fuzzRecord, err error) {
	var shadow fuzzShadow
	shadowErr := json.Unmarshal(body, &shadow)
	if (err == nil) != (shadowErr == nil) {
		t.Fatalf("%q: with the enums error %v, as strings %v", body, err, shadowErr)
	}
	if err != nil {
		return
	}
	got, _ := json.Marshal(r)
	want, _ := json.Marshal(&shadow)
	if string(got) != string(want) {
		t.Fatalf("%q: with the enums %s, as strings %s", body, got, want)
	}
}
