package media

import (
	"testing"
	"time"

	"repro/internal/rng"
)

func benchFrame() Frame {
	enc := NewEncoder(EncoderConfig{}, rng.New(1))
	return enc.Next(time.Unix(0, 0))
}

func BenchmarkMarshalFrame(b *testing.B) {
	f := benchFrame()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = MarshalFrame(buf[:0], &f)
	}
	_ = buf
}

func BenchmarkUnmarshalFrame(b *testing.B) {
	f := benchFrame()
	data := MarshalFrame(nil, &f)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := UnmarshalFrame(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalChunk(b *testing.B) {
	enc := NewEncoder(EncoderConfig{}, rng.New(3))
	chunk := &Chunk{Frames: make([]Frame, FramesPerChunk(DefaultChunkDuration))}
	for i := range chunk.Frames {
		chunk.Frames[i] = enc.Next(time.Unix(0, int64(i)))
	}
	b.SetBytes(int64(chunk.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MarshalChunk(chunk)
	}
}

func BenchmarkParseChunkList(b *testing.B) {
	cl := &ChunkList{BroadcastID: "bench", Version: WindowSize, Chunks: threeSecondRefs(WindowSize)}
	data := cl.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseChunkList(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncoderNext(b *testing.B) {
	enc := NewEncoder(EncoderConfig{}, rng.New(4))
	now := time.Unix(0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc.Next(now)
	}
}
