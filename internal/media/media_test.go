package media

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

func TestFramesPerChunk(t *testing.T) {
	if n := FramesPerChunk(3 * time.Second); n != 75 {
		t.Fatalf("3s chunk = %d frames, want 75 (paper §5.2)", n)
	}
	if n := FramesPerChunk(0); n != 1 {
		t.Fatalf("zero duration should clamp to 1, got %d", n)
	}
}

func TestEncoderBitrate(t *testing.T) {
	e := NewEncoder(EncoderConfig{BitsPerSec: 500_000}, rng.New(1))
	var total int
	const n = 750 // 30 s of video
	now := time.Unix(0, 0)
	keyframes := 0
	for i := 0; i < n; i++ {
		f := e.Next(now.Add(time.Duration(i) * FrameDuration))
		if f.Seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", f.Seq, i)
		}
		total += len(f.Payload)
		if f.Keyframe {
			keyframes++
		}
	}
	bps := float64(total) * 8 / 30
	if bps < 350_000 || bps > 700_000 {
		t.Fatalf("effective bitrate = %v, want ≈500k", bps)
	}
	if keyframes != 10 {
		t.Fatalf("keyframes = %d in 750 frames, want 10", keyframes)
	}
}

func TestEncoderKeyframesLarger(t *testing.T) {
	e := NewEncoder(EncoderConfig{}, rng.New(2))
	now := time.Unix(0, 0)
	var keySum, deltaSum, keyN, deltaN float64
	for i := 0; i < 1500; i++ {
		f := e.Next(now)
		if f.Keyframe {
			keySum += float64(len(f.Payload))
			keyN++
		} else {
			deltaSum += float64(len(f.Payload))
			deltaN++
		}
	}
	if keySum/keyN < 3*(deltaSum/deltaN) {
		t.Fatalf("keyframes not materially larger: key=%v delta=%v", keySum/keyN, deltaSum/deltaN)
	}
}

func TestFrameRoundtrip(t *testing.T) {
	f := Frame{
		Seq:        42,
		CapturedAt: time.Unix(12345, 67890).UTC(),
		Keyframe:   true,
		Payload:    []byte{1, 2, 3, 4, 5},
	}
	buf := MarshalFrame(nil, &f)
	got, used, err := UnmarshalFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(buf) {
		t.Fatalf("used %d of %d bytes", used, len(buf))
	}
	if got.Seq != f.Seq || !got.CapturedAt.Equal(f.CapturedAt) ||
		got.Keyframe != f.Keyframe || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, f)
	}
}

// Frames marshalled back to back decode one by one: each UnmarshalFrame
// reports exactly the bytes its frame used, as chunk decoding relies on.
func TestFrameStreamRoundtrip(t *testing.T) {
	var buf []byte
	e := NewEncoder(EncoderConfig{}, rng.New(3))
	now := time.Unix(500, 0).UTC()
	var sent []Frame
	for i := 0; i < 10; i++ {
		f := e.Next(now.Add(time.Duration(i) * FrameDuration))
		sent = append(sent, f)
		buf = MarshalFrame(buf, &f)
	}
	for i := 0; i < 10; i++ {
		got, used, err := UnmarshalFrame(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Seq != sent[i].Seq || !bytes.Equal(got.Payload, sent[i].Payload) {
			t.Fatalf("frame %d mismatch", i)
		}
		buf = buf[used:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(buf))
	}
}

func TestUnmarshalFrameErrors(t *testing.T) {
	if _, _, err := UnmarshalFrame([]byte{1, 2, 3}); err == nil {
		t.Fatal("short header accepted")
	}
	f := Frame{Payload: []byte{1}}
	buf := MarshalFrame(nil, &f)
	if _, _, err := UnmarshalFrame(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// Oversized length prefix must be rejected, not allocated.
	bad := MarshalFrame(nil, &Frame{})
	bad[17], bad[18], bad[19], bad[20] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := UnmarshalFrame(bad); err != ErrFrameTooLarge {
		t.Fatalf("oversized frame error = %v", err)
	}
}

func TestChunkRoundtrip(t *testing.T) {
	e := NewEncoder(EncoderConfig{}, rng.New(4))
	now := time.Unix(0, 0).UTC()
	chunk := &Chunk{Frames: make([]Frame, FramesPerChunk(time.Second))}
	for i := range chunk.Frames {
		chunk.Frames[i] = e.Next(now.Add(time.Duration(i) * FrameDuration))
	}
	data := MarshalChunk(chunk)
	got, err := UnmarshalChunk(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != chunk.Seq || len(got.Frames) != len(chunk.Frames) {
		t.Fatalf("chunk roundtrip: %d frames vs %d", len(got.Frames), len(chunk.Frames))
	}
	for i := range got.Frames {
		if !bytes.Equal(got.Frames[i].Payload, chunk.Frames[i].Payload) {
			t.Fatalf("frame %d payload mismatch", i)
		}
	}
	if got.Size() != chunk.Size() {
		t.Fatal("size mismatch after roundtrip")
	}
}

func TestUnmarshalChunkErrors(t *testing.T) {
	if _, err := UnmarshalChunk([]byte{1}); err == nil {
		t.Fatal("short chunk accepted")
	}
	bad := make([]byte, 12)
	bad[8], bad[9], bad[10], bad[11] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := UnmarshalChunk(bad); err == nil {
		t.Fatal("implausible frame count accepted")
	}
	// A plausible count the input cannot hold must be refused before Frames
	// is sized from it: 2²⁰ frames claimed by a bare header would otherwise
	// cost ~90 MB.
	bad[8], bad[9], bad[10], bad[11] = 0x00, 0x10, 0x00, 0x00
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := SealedChunk(bad); err == nil {
		t.Fatal("frame count beyond the input accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("rejecting an oversized frame count allocated %d bytes", got)
	}
}

// testChunks are the three shapes the codec distinguishes.
func testChunks() map[string]*Chunk {
	sig := bytes.Repeat([]byte{0xA5}, FrameSigSize)
	return map[string]*Chunk{
		"empty":    {Seq: 9},
		"unsigned": {Seq: 1, Frames: []Frame{{Seq: 0, Keyframe: true, Payload: []byte{1, 2, 3}}, {Seq: 1, Payload: []byte{4}}}},
		"signed":   {Seq: 2, Frames: []Frame{{Seq: 7, Payload: []byte{5, 6}, Sig: sig}, {Seq: 8, Payload: []byte{7}, Sig: sig}}},
	}
}

// Many goroutines racing to seal one chunk must all get the same buffer (one
// marshal, not one each), byte-equal to MarshalChunk. Run under -race.
func TestWireSealsOnce(t *testing.T) {
	for name, c := range testChunks() {
		t.Run(name, func(t *testing.T) {
			const racers = 16
			wires := make([][]byte, racers)
			var wg sync.WaitGroup
			start := make(chan struct{})
			for i := range wires {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					wires[i] = c.Wire()
				}(i)
			}
			close(start)
			wg.Wait()
			want := MarshalChunk(c)
			for i, w := range wires {
				if !bytes.Equal(w, want) {
					t.Fatalf("racer %d: Wire() differs from MarshalChunk", i)
				}
				if &w[0] != &wires[0][0] {
					t.Fatalf("racer %d got its own buffer: the chunk was marshalled more than once", i)
				}
			}
			if cap(want) != len(want) {
				t.Fatalf("MarshalChunk over-allocated: len %d cap %d", len(want), cap(want))
			}
			if allocs := testing.AllocsPerRun(100, func() { c.Wire() }); allocs != 0 {
				t.Fatalf("Wire() on a sealed chunk allocates %v times", allocs)
			}
		})
	}
}

// SealedChunk is zero-copy and born sealed; UnmarshalChunk gives a chunk the
// caller may edit without touching the input (the §7 interceptor relies on
// MarshalChunk re-encoding such edits rather than returning the sealed bytes).
func TestSealedChunkSharesUnmarshalChunkCopies(t *testing.T) {
	for name, c := range testChunks() {
		t.Run(name, func(t *testing.T) {
			data := MarshalChunk(c)
			sealed, err := SealedChunk(data)
			if err != nil {
				t.Fatal(err)
			}
			if w := sealed.Wire(); &w[0] != &data[0] || len(w) != len(data) {
				t.Fatal("SealedChunk did not keep its input as the sealed form")
			}
			cp, err := UnmarshalChunk(data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cp.Wire(), data) {
				t.Fatal("UnmarshalChunk's sealed form differs from its input")
			}
			if len(cp.Frames) == 0 {
				return
			}
			cp.Frames[0].Payload[0] ^= 0xFF
			if !bytes.Equal(sealed.Wire(), MarshalChunk(c)) {
				t.Fatal("editing an UnmarshalChunk copy reached the input")
			}
			if bytes.Equal(MarshalChunk(cp), data) {
				t.Fatal("MarshalChunk returned sealed bytes instead of re-encoding the edited frames")
			}
		})
	}
}

// The first Wire re-points a chunk's own frames into its wire form: over
// seeded random frames — empty and nil payloads, 64-byte signatures and
// signatures of other lengths, capture times with a monotonic reading or
// another location — the sealed chunk's Frames and Wire() deep-equal those of
// SealedChunk(MarshalChunk(c)), and its payloads and signatures are views of
// its own wire, so nothing the frames viewed before is still held.
func TestSealMatchesSealedChunk(t *testing.T) {
	src := rng.New(42)
	east := time.FixedZone("east", 5*3600)
	for trial := 0; trial < 500; trial++ {
		c := &Chunk{Seq: src.Uint64(), Frames: make([]Frame, src.Intn(6))}
		for i := range c.Frames {
			f := &c.Frames[i]
			f.Seq, f.Keyframe = src.Uint64(), src.Intn(2) == 0
			switch src.Intn(3) {
			case 0:
				f.CapturedAt = time.Now()
			case 1:
				f.CapturedAt = time.Unix(int64(src.Intn(1<<31)), int64(src.Intn(1e9))).In(east)
			}
			if n := src.Intn(40); n > 0 || src.Intn(2) == 0 {
				f.Payload = make([]byte, n)
				for j := range f.Payload {
					f.Payload[j] = byte(src.Intn(256))
				}
			}
			switch src.Intn(3) {
			case 0:
				f.Sig = bytes.Repeat([]byte{byte(i)}, FrameSigSize)
			case 1:
				f.Sig = make([]byte, 1+src.Intn(2*FrameSigSize))
			}
		}
		want, err := SealedChunk(MarshalChunk(c))
		if err != nil {
			t.Fatal(err)
		}
		wire := c.Wire()
		if !reflect.DeepEqual(c.Frames, want.Frames) || !bytes.Equal(wire, want.Wire()) {
			t.Fatalf("trial %d: sealed in place\n%+v\nwant\n%+v", trial, c.Frames, want.Frames)
		}
		for i, f := range c.Frames {
			for _, view := range [][]byte{f.Payload, f.Sig} {
				if len(view) > 0 && !within(view, wire) {
					t.Fatalf("trial %d frame %d: a payload or signature is not a view of the wire", trial, i)
				}
			}
		}
		if again := c.Wire(); &again[0] != &wire[0] {
			t.Fatalf("trial %d: a second Wire built another wire", trial)
		}
	}
}

// Property: frame marshal/unmarshal is a lossless roundtrip.
func TestFrameRoundtripProperty(t *testing.T) {
	f := func(seq uint64, nanos int64, key bool, payload []byte) bool {
		in := Frame{Seq: seq, CapturedAt: time.Unix(0, nanos).UTC(), Keyframe: key, Payload: payload}
		buf := MarshalFrame(nil, &in)
		out, used, err := UnmarshalFrame(buf)
		if err != nil || used != len(buf) {
			return false
		}
		return out.Seq == in.Seq && out.CapturedAt.Equal(in.CapturedAt) &&
			out.Keyframe == in.Keyframe && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
