package journal

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzRecordRoundTrip: any (type, id, payload) triple must survive
// encode → decode byte-identically, and every decode of the encoding's
// prefixes must fail cleanly (truncation) rather than mis-parse.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint8(RecordCreate), "b1", []byte(nil))
	f.Add(uint8(RecordSeal), "broadcast-with-long-id", []byte("payload"))
	f.Add(uint8(RecordEnd), "", []byte{})
	f.Add(uint8(255), "x", bytes.Repeat([]byte{0xAA}, 1024))
	// Control-plane records: JSON payloads under the same framing.
	f.Add(uint8(RecordCtrlRegister), "", []byte(`{"id":7,"name":"alice"}`))
	f.Add(uint8(RecordCtrlStart), "bcast-1", []byte(`{"token":"t0k","broadcaster":7,"started_at":123}`))
	f.Add(uint8(RecordCtrlJoin), "bcast-1", []byte(`{"user_id":9,"at":456,"viewer_token":"vt"}`))
	f.Fuzz(func(t *testing.T, typ uint8, id string, payload []byte) {
		if len(id) > 1<<16-1 {
			id = id[:1<<16-1]
		}
		in := Record{Type: RecordType(typ), BroadcastID: id, Payload: payload}
		enc := AppendRecord(nil, in)
		out, n, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("decode of fresh encoding failed: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
		}
		if out.Type != in.Type || out.BroadcastID != in.BroadcastID || !bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("round trip mismatch: in %+v out %+v", in, out)
		}
		// Every strict prefix is a torn write: it must decode as truncated
		// (or, when the length field itself is cut, corrupt) — never succeed.
		for _, cut := range []int{1, len(enc) / 2, len(enc) - 1} {
			if cut <= 0 || cut >= len(enc) {
				continue
			}
			if _, _, err := DecodeRecord(enc[:cut]); err == nil {
				t.Fatalf("prefix of %d/%d bytes decoded successfully", cut, len(enc))
			}
		}
	})
}

// FuzzReplay: arbitrary bytes — including corrupted encodings of real
// records — must never panic Replay, and the stats must stay internally
// consistent (valid + discarded = total, records only from the valid prefix).
func FuzzReplay(f *testing.F) {
	clean := AppendRecord(nil, Record{Type: RecordCreate, BroadcastID: "b"})
	clean = AppendRecord(clean, Record{Type: RecordSeal, BroadcastID: "b", Payload: []byte("chunk")})
	f.Add([]byte(nil))
	f.Add(clean)
	f.Add(clean[:len(clean)-3])
	corrupt := append([]byte(nil), clean...)
	corrupt[len(corrupt)-1] ^= 1
	f.Add(corrupt)
	// A broadcast the origin forgot: create, seal, end, remove.
	removed := AppendRecord(append([]byte(nil), clean...), Record{Type: RecordEnd, BroadcastID: "b"})
	f.Add(AppendRecord(removed, Record{Type: RecordRemove, BroadcastID: "b"}))
	// A control-plane journal stream, clean and with a torn tail: the
	// same truncate-and-continue contract covers both record spaces.
	ctrl := AppendRecord(nil, Record{Type: RecordCtrlRegister, Payload: []byte(`{"id":1}`)})
	ctrl = AppendRecord(ctrl, Record{Type: RecordCtrlStart, BroadcastID: "bcast-1", Payload: []byte(`{"token":"t","broadcaster":1}`)})
	ctrl = AppendRecord(ctrl, Record{Type: RecordCtrlEnd, BroadcastID: "bcast-1", Payload: []byte(`{"ended_at":9}`)})
	f.Add(ctrl)
	f.Add(ctrl[:len(ctrl)-5])
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		st, err := Replay(data, func(r Record) error {
			n++
			return nil
		})
		if err != nil {
			t.Fatalf("replay with nil-error callback returned %v", err)
		}
		if st.Records != n {
			t.Fatalf("stats.Records = %d, callback ran %d times", st.Records, n)
		}
		if st.ValidBytes > len(data) {
			t.Fatalf("valid %d > total %d", st.ValidBytes, len(data))
		}
		if st.TailCorrupt != (st.ValidBytes < len(data)) {
			t.Fatalf("TailCorrupt = %v with %d of %d bytes valid", st.TailCorrupt, st.ValidBytes, len(data))
		}
		// The valid prefix must re-replay to the same record count.
		st2, err := Replay(data[:st.ValidBytes], func(Record) error { return nil })
		if err != nil || st2.Records != st.Records || st2.TailCorrupt {
			t.Fatalf("valid prefix replay: %+v (err %v), want %d clean records", st2, err, st.Records)
		}
		// Appending a fresh record after truncating the damaged tail must
		// yield a journal that replays every old record plus the new one.
		if errors.Is(err, nil) {
			ext := AppendRecord(append([]byte(nil), data[:st.ValidBytes]...), Record{Type: RecordEnd, BroadcastID: "b"})
			st3, err := Replay(ext, func(Record) error { return nil })
			if err != nil || st3.Records != st.Records+1 || st3.TailCorrupt {
				t.Fatalf("append after truncate: %+v (err %v), want %d clean records", st3, err, st.Records+1)
			}
		}
	})
}
