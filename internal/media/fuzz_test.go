package media

import (
	"bytes"
	"testing"
	"time"
)

// Fuzz targets run their seed corpus under `go test` and can be extended
// with `go test -fuzz=FuzzUnmarshalFrame ./internal/media`.

func FuzzUnmarshalFrame(f *testing.F) {
	good := MarshalFrame(nil, &Frame{Seq: 1, CapturedAt: time.Unix(5, 0), Keyframe: true, Payload: []byte{1, 2, 3}})
	signed := MarshalFrame(nil, &Frame{Seq: 2, Payload: []byte{9}, Sig: bytes.Repeat([]byte{7}, FrameSigSize)})
	f.Add(good)
	f.Add(signed)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := UnmarshalFrame(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		// Whatever parses must re-marshal to the consumed bytes.
		out := MarshalFrame(nil, &fr)
		if !bytes.Equal(out, data[:n]) {
			t.Fatalf("re-marshal mismatch: %x vs %x", out, data[:n])
		}
	})
}

func FuzzUnmarshalChunk(f *testing.F) {
	c := &Chunk{Seq: 3, Frames: []Frame{
		{Seq: 0, Payload: []byte{1}},
		{Seq: 1, Payload: []byte{2, 3}, Sig: bytes.Repeat([]byte{1}, FrameSigSize)},
	}}
	f.Add(MarshalChunk(c))
	f.Add([]byte{})
	f.Add(make([]byte, 12))
	// A bare header claiming 2²⁰ frames: the count must be bounded by what
	// the input can hold before anything is sized from it.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0x00, 0x10, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := append([]byte(nil), data...)
		chunk, err := SealedChunk(data)
		if _, copyErr := UnmarshalChunk(orig); (err == nil) != (copyErr == nil) {
			t.Fatalf("SealedChunk err %v, UnmarshalChunk err %v", err, copyErr)
		}
		if err != nil {
			return
		}
		// The sealed form is the consumed input itself, and decoding it
		// changed none of it.
		wire := chunk.Wire()
		if len(wire) > len(data) || (len(wire) > 0 && &wire[0] != &data[0]) {
			t.Fatal("Wire() is not the consumed prefix of the input")
		}
		if !bytes.Equal(data, orig) {
			t.Fatal("decoding modified the input")
		}
		// The wire format is canonical: re-encoding the frames gives the
		// same bytes, so serving Wire() equals serving MarshalChunk.
		if !bytes.Equal(MarshalChunk(chunk), wire) {
			t.Fatal("MarshalChunk from Frames differs from Wire()")
		}
		// Zero-copy: every payload and signature is a view into the input.
		for i := range chunk.Frames {
			for _, view := range [][]byte{chunk.Frames[i].Payload, chunk.Frames[i].Sig} {
				if len(view) > 0 && !within(view, data) {
					t.Fatalf("frame %d does not alias the input", i)
				}
			}
		}
		// UnmarshalChunk decodes the same chunk but shares nothing.
		cp, err := UnmarshalChunk(data)
		if err != nil || !bytes.Equal(cp.Wire(), wire) {
			t.Fatalf("UnmarshalChunk disagrees with SealedChunk: %v", err)
		}
		if len(wire) > 0 && within(cp.Wire(), data) {
			t.Fatal("UnmarshalChunk aliases its input")
		}
	})
}

// within reports whether view's backing bytes lie inside buf's.
func within(view, buf []byte) bool {
	for i := range buf {
		if &buf[i] == &view[0] {
			return len(view) <= len(buf)-i
		}
	}
	return false
}

func FuzzParseChunkList(f *testing.F) {
	cl := &ChunkList{BroadcastID: "b", Version: 4, Chunks: []ChunkRef{{Seq: 1, Duration: 3 * time.Second}}}
	f.Add(cl.Marshal())
	f.Add([]byte("#EXTM3U\n"))
	f.Add([]byte("#EXTM3U\n#EXTINF:nope\n"))
	f.Add([]byte("#EXTM3U\n#EXTINF:-0.0001,1\nchunk/1\n#EXTINF:1e300,2\nchunk/2\n#EXTINF:-9223372036.8547,3\nchunk/3\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := ParseChunkList(data)
		if err != nil {
			return
		}
		// Marshal keeps everything but sub-millisecond duration digits, so
		// the first Parse → Marshal → Parse keeps all of the list except
		// those, and from then on the round trip is the identity: the same
		// list to the nanosecond, and the same bytes.
		again, err := ParseChunkList(parsed.Marshal())
		if err != nil {
			t.Fatalf("roundtrip rejected: %v", err)
		}
		sameList(t, parsed, again, false)
		third, err := ParseChunkList(again.Marshal())
		if err != nil {
			t.Fatalf("second roundtrip rejected: %v", err)
		}
		sameList(t, again, third, true)
		if !bytes.Equal(third.Marshal(), again.Marshal()) {
			t.Fatalf("Marshal is not a fixed point:\n%s\nthen\n%s", again.Marshal(), third.Marshal())
		}
		if !bytes.Equal(parsed.render(), fmtRender(parsed)) {
			t.Fatal("render differs from the fmt renderer")
		}
	})
}

// sameList fails t unless a and b agree on the broadcast, version, end
// marker and chunk seqs, and also on every duration when durations is set.
func sameList(t *testing.T, a, b *ChunkList, durations bool) {
	t.Helper()
	if a.BroadcastID != b.BroadcastID || a.Version != b.Version || a.Ended != b.Ended || len(a.Chunks) != len(b.Chunks) {
		t.Fatalf("roundtrip changed the list: %+v then %+v", a, b)
	}
	for i := range a.Chunks {
		if a.Chunks[i].Seq != b.Chunks[i].Seq || durations && a.Chunks[i].Duration != b.Chunks[i].Duration {
			t.Fatalf("roundtrip changed chunk %d: %+v then %+v", i, a.Chunks[i], b.Chunks[i])
		}
	}
}
