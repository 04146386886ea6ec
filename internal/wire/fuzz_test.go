package wire

import (
	"bytes"
	"testing"
)

func FuzzReadMessage(f *testing.F) {
	var buf bytes.Buffer
	WriteMessage(&buf, Message{Type: MsgHandshake, Body: MarshalHandshake(Handshake{Role: RoleViewer, BroadcastID: "b"})})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Add([]byte{3, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
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
		// The framing-preserving readers consume exactly the same message.
		for _, read := range encodedReaders {
			if e, err := read(data)(); err != nil || !bytes.Equal(e, out.Bytes()) {
				t.Fatalf("encoded read = %x (%v), want %x", e, err, out.Bytes())
			}
		}
	})
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
