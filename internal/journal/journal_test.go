package journal

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
	"repro/internal/testutil"
)

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Type: RecordCreate, BroadcastID: "b1"},
		{Type: RecordSeal, BroadcastID: "b1", Payload: []byte("chunk-bytes")},
		{Type: RecordEnd, BroadcastID: "b1"},
		{Type: RecordSeal, BroadcastID: "", Payload: nil},
	}
	var buf []byte
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	off := 0
	for i, want := range recs {
		got, n, err := DecodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Type != want.Type || got.BroadcastID != want.BroadcastID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestDecodeRecordTruncated(t *testing.T) {
	full := AppendRecord(nil, Record{Type: RecordSeal, BroadcastID: "b", Payload: []byte("payload")})
	for cut := 1; cut < len(full); cut++ {
		_, _, err := DecodeRecord(full[:cut])
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: err = %v, want truncated or corrupt", cut, err)
		}
	}
}

func TestDecodeRecordCorrupt(t *testing.T) {
	full := AppendRecord(nil, Record{Type: RecordSeal, BroadcastID: "b", Payload: []byte("payload")})
	for i := 4; i < len(full); i++ { // flipping length bytes may read as truncation instead
		bad := append([]byte(nil), full...)
		bad[i] ^= 0x40
		if _, _, err := DecodeRecord(bad); err == nil {
			t.Fatalf("bit flip at %d went undetected", i)
		}
	}
}

// TestReplayTailDiscard: a journal with a damaged tail replays its intact
// prefix and reports exactly what was discarded.
func TestReplayTailDiscard(t *testing.T) {
	var buf []byte
	buf = AppendRecord(buf, Record{Type: RecordCreate, BroadcastID: "b"})
	buf = AppendRecord(buf, Record{Type: RecordSeal, BroadcastID: "b", Payload: []byte("c0")})
	valid := len(buf)
	buf = AppendRecord(buf, Record{Type: RecordSeal, BroadcastID: "b", Payload: []byte("c1")})

	cases := map[string][]byte{
		"truncated": buf[:valid+9],
		"corrupt": func() []byte {
			bad := append([]byte(nil), buf...)
			bad[len(bad)-1] ^= 1
			return bad
		}(),
	}
	for name, data := range cases {
		var got []Record
		st, err := Replay(data, func(r Record) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Records != 2 || len(got) != 2 {
			t.Fatalf("%s: replayed %d records, want 2", name, st.Records)
		}
		if !st.TailCorrupt {
			t.Fatalf("%s: TailCorrupt not reported", name)
		}
		if st.ValidBytes != valid {
			t.Fatalf("%s: ValidBytes = %d, want %d", name, st.ValidBytes, valid)
		}
	}
}

func TestReplayCleanJournal(t *testing.T) {
	var buf []byte
	for i := 0; i < 5; i++ {
		buf = AppendRecord(buf, Record{Type: RecordSeal, BroadcastID: "b", Payload: []byte{byte(i)}})
	}
	st, err := Replay(buf, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 5 || st.TailCorrupt || st.ValidBytes != len(buf) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReplayCallbackError(t *testing.T) {
	buf := AppendRecord(nil, Record{Type: RecordCreate, BroadcastID: "b"})
	boom := errors.New("boom")
	if _, err := Replay(buf, func(Record) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestWriterGroupCommit: every record Append acknowledged before Close is in
// the backend afterward, in order, and the batch count shows group commit
// coalesced at least some appends.
func TestWriterGroupCommit(t *testing.T) {
	testutil.CheckGoroutines(t)
	reg := metrics.NewRegistry()
	mem := NewMem()
	w := NewWriter(mem, WriterConfig{Metrics: reg})
	const n = 200
	for i := 0; i < n; i++ {
		if err := w.Append(Record{Type: RecordSeal, BroadcastID: "b", Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Type: RecordEnd, BroadcastID: "b"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	data, err := mem.Load()
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	st, err := Replay(data, func(r Record) error {
		if len(r.Payload) != 1 || r.Payload[0] != byte(i) {
			t.Fatalf("record %d out of order: payload %v", i, r.Payload)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != n || st.TailCorrupt {
		t.Fatalf("stats = %+v, want %d clean records", st, n)
	}
	appends, batches := counterValue(reg, "journal_appends_total"), counterValue(reg, "journal_batches_total")
	if appends != n {
		t.Fatalf("journal_appends_total = %d, want %d", appends, n)
	}
	if batches == 0 || batches > n {
		t.Fatalf("journal_batches_total = %d, want within (0, %d]", batches, n)
	}
}

func TestMemBackendTailHelpers(t *testing.T) {
	mem := NewMem()
	buf := AppendRecord(nil, Record{Type: RecordCreate, BroadcastID: "b"})
	if err := mem.Append(buf); err != nil {
		t.Fatal(err)
	}
	mem.CorruptTail(2)
	data, _ := mem.Load()
	st, err := Replay(data, func(Record) error { return nil })
	if err != nil || st.Records != 0 || !st.TailCorrupt {
		t.Fatalf("corrupted journal replayed as %+v (err %v)", st, err)
	}
	if err := mem.Truncate(int64(st.ValidBytes)); err != nil {
		t.Fatal(err)
	}
	if mem.Len() != 0 {
		t.Fatalf("Len = %d after truncate to valid prefix", mem.Len())
	}
}

// TestMemBackendSegments: a journal longer than one segment reads back as the
// bytes appended, truncation and tail damage land on the right bytes either
// side of a segment boundary, and appends after a Truncate reuse the segments
// the journal already holds.
func TestMemBackendSegments(t *testing.T) {
	mem := NewMem()
	want := make([]byte, 2*memSegment+memSegment/2)
	for i := range want {
		want[i] = byte(i * 7)
	}
	for _, cut := range []int{memSegment - 3, memSegment + 5, len(want)} { // the second append straddles a boundary
		if err := mem.Append(want[mem.Len():cut]); err != nil {
			t.Fatal(err)
		}
	}
	if data, _ := mem.Load(); !bytes.Equal(data, want) {
		t.Fatalf("Load returned %d bytes that differ from the %d appended", len(data), len(want))
	}
	if err := mem.Truncate(int64(len(want) + 1)); err == nil {
		t.Fatal("Truncate past the end succeeded")
	}
	if err := mem.Truncate(memSegment + 1); err != nil {
		t.Fatal(err)
	}
	mem.CorruptTail(2) // one byte in each of the first two segments
	want = want[:memSegment+1]
	want[memSegment-1] ^= 1
	want[memSegment] ^= 1
	if data, _ := mem.Load(); !bytes.Equal(data, want) {
		t.Fatalf("after Truncate and CorruptTail, Load returned %d bytes that differ from the %d expected", len(data), len(want))
	}
	if n := testing.AllocsPerRun(5, func() {
		_ = mem.Truncate(0)
		_ = mem.Append(want)
	}); n != 0 {
		t.Fatalf("refilling a truncated journal allocated %v times, want 0", n)
	}
}

// TestFileBackend: append, reload, truncate, and append-after-truncate all
// behave like the in-memory backend.
func TestFileBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "origin.wal")
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	r1 := AppendRecord(nil, Record{Type: RecordCreate, BroadcastID: "b"})
	r2 := AppendRecord(nil, Record{Type: RecordSeal, BroadcastID: "b", Payload: []byte("c0")})
	if err := fb.Append(r1); err != nil {
		t.Fatal(err)
	}
	if err := fb.Append(r2); err != nil {
		t.Fatal(err)
	}
	fb.Close()

	// Reopen, as a restarted process would.
	fb, err = OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := fb.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, append(append([]byte(nil), r1...), r2...)) {
		t.Fatal("reloaded journal differs from appended bytes")
	}
	if err := fb.Truncate(int64(len(r1))); err != nil {
		t.Fatal(err)
	}
	r3 := AppendRecord(nil, Record{Type: RecordEnd, BroadcastID: "b"})
	if err := fb.Append(r3); err != nil {
		t.Fatal(err)
	}
	data, err = fb.Load()
	if err != nil {
		t.Fatal(err)
	}
	var types []RecordType
	st, err := Replay(data, func(r Record) error {
		types = append(types, r.Type)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.TailCorrupt || st.Records != 2 {
		t.Fatalf("stats = %+v, want 2 clean records", st)
	}
	if types[0] != RecordCreate || types[1] != RecordEnd {
		t.Fatalf("types = %v", types)
	}
}
