package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/testutil"
)

// TestEncodeMessageRoundTrip checks that the pre-framed form is exactly what
// WriteMessage puts on the wire, that its accessors re-view the bytes, and
// that ReadMessage reads it back.
func TestEncodeMessageRoundTrip(t *testing.T) {
	msgs := []Message{
		{Type: MsgFrame, Body: []byte("payload bytes")},
		{Type: MsgEnd},
		{Type: MsgHandshakeAck, Body: MarshalAck(Ack{Status: StatusOK, Message: "hi"})},
	}
	for _, m := range msgs {
		enc, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		var legacy bytes.Buffer
		if err := WriteMessage(&legacy, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(legacy.Bytes(), []byte(enc)) {
			t.Fatalf("EncodeMessage diverged from WriteMessage for type %d", m.Type)
		}
		if enc.Type() != m.Type {
			t.Fatalf("Type() = %d, want %d", enc.Type(), m.Type)
		}
		if !bytes.Equal(enc.Body(), m.Body) {
			t.Fatalf("Body() = %q, want %q", enc.Body(), m.Body)
		}
		back, err := ReadMessage(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		if back.Type != m.Type || !bytes.Equal(back.Body, m.Body) {
			t.Fatalf("round trip = %+v, want %+v", back, m)
		}
	}
}

func TestEncodeMessageTooLarge(t *testing.T) {
	if _, err := EncodeMessage(Message{Type: MsgFrame, Body: make([]byte, MaxBody+1)}); err != ErrBodyTooLarge {
		t.Fatalf("err = %v, want ErrBodyTooLarge", err)
	}
	if _, err := AppendMessage(nil, Message{Type: MsgFrame, Body: make([]byte, MaxBody+1)}); err != ErrBodyTooLarge {
		t.Fatalf("append err = %v, want ErrBodyTooLarge", err)
	}
}

// encodedReaders are the ways to read a message with its framing kept: from
// any reader, and with a Reader over a buffered one — the default 4 KB
// buffer, and the smallest bufio allows, which most messages outgrow.
var encodedReaders = map[string]func(raw []byte) func() (Encoded, error){
	"ReadEncoded": func(raw []byte) func() (Encoded, error) {
		r := bytes.NewReader(raw)
		return func() (Encoded, error) { return ReadEncoded(r) }
	},
	"Reader": func(raw []byte) func() (Encoded, error) {
		return NewReader(bufio.NewReader(bytes.NewReader(raw))).Next
	},
	"Reader_bufio16": func(raw []byte) func() (Encoded, error) {
		return NewReader(bufio.NewReaderSize(bytes.NewReader(raw), 16)).Next
	},
}

// TestReadEncodedMatchesWire checks both readers preserve the exact framed
// bytes, including the zero-body case and a body larger than a bufio buffer,
// and tell a clean end of stream from one cut mid-message.
func TestReadEncodedMatchesWire(t *testing.T) {
	big := bytes.Repeat([]byte{9}, 10_000)
	var buf bytes.Buffer
	for _, m := range []Message{
		{Type: MsgFrame, Body: []byte("abc")},
		{Type: MsgEnd},
		{Type: MsgFrame, Body: big},
	} {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	wireBytes := buf.Bytes()
	for name, open := range encodedReaders {
		t.Run(name, func(t *testing.T) {
			next := open(wireBytes)
			var got []byte
			var msgs []Encoded
			for i := 0; i < 3; i++ {
				e, err := next()
				if err != nil {
					t.Fatal(err)
				}
				msgs = append(msgs, e)
				got = append(got, e...)
			}
			if !bytes.Equal(got, wireBytes) {
				t.Fatal("read bytes diverged from wire bytes")
			}
			if msgs[0].Type() != MsgFrame || string(msgs[0].Body()) != "abc" {
				t.Fatalf("e1 = type %d body %q", msgs[0].Type(), msgs[0].Body())
			}
			if msgs[1].Type() != MsgEnd || len(msgs[1].Body()) != 0 {
				t.Fatalf("e2 = type %d body %q", msgs[1].Type(), msgs[1].Body())
			}
			if !bytes.Equal(msgs[2].Body(), big) {
				t.Fatal("large body diverged")
			}
			if _, err := next(); err != io.EOF {
				t.Fatalf("err = %v, want EOF", err)
			}
			if _, err := open(wireBytes[:3])(); err != io.ErrUnexpectedEOF {
				t.Fatalf("torn header: err = %v, want ErrUnexpectedEOF", err)
			}
			if _, err := open(wireBytes[:6])(); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("torn body: err = %v, want ErrUnexpectedEOF", err)
			}
		})
	}
}

// TestReadEncodedRejectsOversize checks the length-prefix bound holds on the
// preserved-framing read paths too.
func TestReadEncodedRejectsOversize(t *testing.T) {
	raw := []byte{byte(MsgFrame), 0xff, 0xff, 0xff, 0xff}
	for name, open := range encodedReaders {
		if _, err := open(raw)(); err != ErrBodyTooLarge {
			t.Fatalf("%s: err = %v, want ErrBodyTooLarge", name, err)
		}
	}
}

// TestReaderOneAllocPerBatch pins the buffered read at its product: k
// messages already in the bufio.Reader cost one allocation between them —
// the batch they are carved from, with no header scratch beside it — and so
// does a message too big to be buffered whole.
func TestReaderOneAllocPerBatch(t *testing.T) {
	const runs = 100
	for _, tc := range []struct {
		name    string
		k, body int
	}{
		{"six_buffered", 6, 600},
		{"larger_than_bufio", 1, 10_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var batch []byte
			for i := 0; i < tc.k; i++ {
				body := bytes.Repeat([]byte{byte(i)}, tc.body)
				batch, _ = AppendMessage(batch, Message{Type: MsgFrame, Body: body})
			}
			// Each refill of the bufio.Reader reads exactly one batch.
			rd := NewReader(bufio.NewReader(testutil.Replay(batch)))
			msgs := make([]Encoded, tc.k)
			allocs := testing.AllocsPerRun(runs, func() {
				for i := range msgs {
					e, err := rd.Next()
					if err != nil {
						t.Fatal(err)
					}
					msgs[i] = e
				}
			})
			if allocs != 1 {
				t.Fatalf("allocs per %d buffered messages = %.1f, want 1", tc.k, allocs)
			}
			var got []byte
			for i, e := range msgs {
				got = append(got, e...)
				if cap(e) != len(e) {
					t.Fatalf("message %d: cap %d > len %d — an append could reach the next message", i, cap(e), len(e))
				}
				if i > 0 && !testutil.Adjacent(msgs[i-1], e) {
					t.Fatalf("message %d was not carved from the batch right behind message %d", i, i-1)
				}
			}
			if !bytes.Equal(got, batch) {
				t.Fatal("carved messages diverged from the wire bytes")
			}
		})
	}
}

// TestEncodeMessageOneAlloc pins the fan-out's one framing per arrival at its
// product: the framed buffer, and nothing beside it.
func TestEncodeMessageOneAlloc(t *testing.T) {
	m := Message{Type: MsgFrame, Body: make([]byte, 512)}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := EncodeMessage(m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("EncodeMessage allocs/op = %.1f, want 1 (the framed buffer)", allocs)
	}
}

// TestWriteMessageAllocFree locks in the pooled-buffer property: framing and
// writing a message allocates nothing in steady state.
func TestWriteMessageAllocFree(t *testing.T) {
	body := make([]byte, 2048)
	m := Message{Type: MsgFrame, Body: body}
	sink := io.Discard
	// Warm the pool.
	if err := WriteMessage(sink, m); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := WriteMessage(sink, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("WriteMessage allocs/op = %.1f, want 0", allocs)
	}
}
