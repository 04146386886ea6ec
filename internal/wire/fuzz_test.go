package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func FuzzReadMessage(f *testing.F) {
	var buf bytes.Buffer
	WriteMessage(&buf, Message{Type: MsgHandshake, Body: MarshalHandshake(Handshake{Role: RoleViewer, BroadcastID: "b"})})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Add([]byte{3, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{3, 0, 0, 0, 9}) // a header, then nothing of its body
	// Good messages, then a length over MaxBody: the good ones come first.
	f.Add([]byte{3, 0, 0, 0, 2, 'h', 'i', 5, 0, 0, 0, 0, 3, 0xFF, 0xFF, 0xFF, 0xFF})
	// A batch that straddles a 16-byte buffer, then a tail torn in its body.
	f.Add([]byte{3, 0, 0, 0, 1, 'a', 3, 0, 0, 0, 20, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 3, 0, 0, 0, 4, 'x', 'y'})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		if err == nil {
			if len(m.Body) > MaxBody {
				t.Fatal("oversized body accepted")
			}
			var out bytes.Buffer
			if err := WriteMessage(&out, m); err != nil {
				t.Fatalf("re-write rejected: %v", err)
			}
			if !bytes.Equal(out.Bytes(), data[:5+len(m.Body)]) {
				t.Fatal("re-write mismatch")
			}
		}
		// ReadHandshake accepts exactly what ReadMessage + UnmarshalHandshake
		// accept for a handshake no longer than maxHandshakeBody.
		hs, herr := ReadHandshake(bytes.NewReader(data))
		want, werr := Handshake{}, err
		if werr == nil && (m.Type != MsgHandshake || len(m.Body) > maxHandshakeBody) {
			werr = errors.New("not a handshake")
		}
		if werr == nil {
			want, werr = UnmarshalHandshake(m.Body)
		}
		if (herr == nil) != (werr == nil) || herr == nil && hs != want {
			t.Fatalf("ReadHandshake = %+v, %v; ReadMessage + UnmarshalHandshake = %+v, %v", hs, herr, want, werr)
		}
		// The framing-preserving readers consume the whole input exactly as
		// successive ReadMessage calls do — every batch boundary, the torn
		// tail, and an over-MaxBody length only after the messages before it.
		for name, open := range encodedReaders {
			next, ref := open(data), bytes.NewReader(data)
			for i := 0; ; i++ {
				want, werr := ReadMessage(ref)
				got, gerr := next()
				if werr != nil {
					if readFailure(gerr) != readFailure(werr) {
						t.Fatalf("%s: message %d: err = %v, want %v", name, i, gerr, werr)
					}
					break
				}
				if gerr != nil || got.Type() != want.Type || !bytes.Equal(got.Body(), want.Body) || cap(got) != len(got) {
					t.Fatalf("%s: message %d = %x (%v), want type %d body %x", name, i, got, gerr, want.Type, want.Body)
				}
			}
		}
	})
}

// readFailure classifies a read error: a clean end, a torn message (cut in
// the header or the body), or a length over MaxBody.
func readFailure(err error) string {
	switch {
	case err == nil:
		return "none"
	case err == io.EOF:
		return "end"
	case errors.Is(err, ErrBodyTooLarge):
		return "too large"
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return "torn"
	}
	return err.Error()
}

func FuzzUnmarshalHandshake(f *testing.F) {
	f.Add(MarshalHandshake(Handshake{Role: RoleBroadcaster, BroadcastID: "x", Token: "t", BufferMs: 9}))
	f.Add([]byte{})
	f.Add([]byte{0, 5, 'a'})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := UnmarshalHandshake(data)
		if err != nil {
			return
		}
		got, err := UnmarshalHandshake(MarshalHandshake(h))
		if err != nil || got != h {
			t.Fatalf("roundtrip mismatch: %+v vs %+v (%v)", got, h, err)
		}
	})
}

func FuzzUnmarshalSignedFrame(f *testing.F) {
	body, _ := MarshalSignedFrame([]byte("frame"), bytes.Repeat([]byte{1}, SignatureSize))
	f.Add(body)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 200, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		fb, sig, err := UnmarshalSignedFrame(data)
		if err != nil {
			return
		}
		if len(sig) != SignatureSize {
			t.Fatal("bad signature length accepted")
		}
		again, err := MarshalSignedFrame(fb, sig)
		if err != nil {
			t.Fatalf("re-marshal rejected: %v", err)
		}
		fb2, sig2, err := UnmarshalSignedFrame(again)
		if err != nil || !bytes.Equal(fb, fb2) || !bytes.Equal(sig, sig2) {
			t.Fatal("roundtrip mismatch")
		}
	})
}
