package media

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

// Marshal renders a list once: every poll of one version is answered from the
// same bytes, and a successor list renders its own.
func TestChunkListMarshalRendersOnce(t *testing.T) {
	cl := &ChunkList{BroadcastID: "b", Version: 1, Chunks: []ChunkRef{{Seq: 1}}}
	first := cl.Marshal()
	if again := cl.Marshal(); &again[0] != &first[0] {
		t.Fatal("second Marshal rendered again")
	}
	if allocs := testing.AllocsPerRun(100, func() { cl.Marshal() }); allocs != 0 {
		t.Fatalf("Marshal of a rendered list allocates %v times", allocs)
	}
	next := &ChunkList{BroadcastID: "b", Version: 2, Chunks: []ChunkRef{{Seq: 1}, {Seq: 2}}}
	if got, err := ParseChunkList(next.Marshal()); err != nil || got.Version != 2 || len(got.Chunks) != 2 {
		t.Fatalf("successor's Marshal: %+v, %v", got, err)
	}
	if got, err := ParseChunkList(cl.Marshal()); err != nil || got.Version != 1 || len(got.Chunks) != 1 {
		t.Fatalf("Marshal after a successor rendered: %+v, %v", got, err)
	}
}

func TestChunkListMarshalRoundtrip(t *testing.T) {
	cl := &ChunkList{BroadcastID: "bcast-123", Version: 42, Ended: true}
	cl.Chunks = []ChunkRef{
		{Seq: 10, Duration: 3 * time.Second},
		{Seq: 11, Duration: 2800 * time.Millisecond},
	}
	got, err := ParseChunkList(cl.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.BroadcastID != cl.BroadcastID || got.Version != cl.Version || !got.Ended {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Chunks) != 2 {
		t.Fatalf("chunks = %d", len(got.Chunks))
	}
	for i := range got.Chunks {
		if got.Chunks[i] != cl.Chunks[i] {
			t.Fatalf("chunk %d mismatch: %+v vs %+v", i, got.Chunks[i], cl.Chunks[i])
		}
	}
}

// Every millisecond-exact duration Marshal can write, 1 ms to 10 s, parses
// back to the nanosecond: the parser rounds where truncation would read 271
// of them 1 ns short.
func TestParseChunkListMillisecondsExact(t *testing.T) {
	var short []time.Duration
	for ms := 1; ms <= 10_000; ms++ {
		d := time.Duration(ms) * time.Millisecond
		cl := &ChunkList{BroadcastID: "b", Chunks: []ChunkRef{{Seq: uint64(ms), Duration: d}}}
		got, err := ParseChunkList(cl.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if got.Chunks[0].Duration != d {
			short = append(short, got.Chunks[0].Duration)
		}
	}
	if len(short) > 0 {
		t.Fatalf("%d of 10000 durations do not round-trip, first %v", len(short), short[0])
	}
}

func TestParseChunkListErrors(t *testing.T) {
	cases := []string{
		"",
		"not a playlist",
		"#EXTM3U\n#X-VERSION:abc\n",
		"#EXTM3U\n#EXTINF:bad\nuri\n",
		"#EXTM3U\n#EXTINF:1.0,notanum\nuri\n",
		"#EXTM3U\nuri-without-extinf\n",
		"#EXTM3U\n#EXTINF:1.0,5\n",
	}
	for _, in := range cases {
		if _, err := ParseChunkList([]byte(in)); err == nil {
			t.Fatalf("ParseChunkList(%q) accepted invalid input", in)
		}
	}
}

func TestParseChunkListIgnoresUnknownTags(t *testing.T) {
	in := "#EXTM3U\n#X-BROADCAST:b\n#EXT-X-FUTURE-TAG:yes\n#EXTINF:3.000,0\nuri\n"
	cl, err := ParseChunkList([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Chunks) != 1 {
		t.Fatalf("chunks = %d", len(cl.Chunks))
	}
}

// Property: any list survives a marshal/parse roundtrip.
func TestChunkListRoundtripProperty(t *testing.T) {
	f := func(seqs []uint16, ended bool) bool {
		cl := &ChunkList{BroadcastID: "prop", Version: uint64(len(seqs)), Ended: ended}
		for i, s := range seqs {
			cl.Chunks = append(cl.Chunks, ChunkRef{Seq: uint64(s), Duration: time.Duration(i%5+1) * time.Second})
		}
		got, err := ParseChunkList(cl.Marshal())
		if err != nil {
			return false
		}
		if got.Version != cl.Version || got.Ended != cl.Ended || len(got.Chunks) != len(cl.Chunks) {
			return false
		}
		for i := range got.Chunks {
			if got.Chunks[i] != cl.Chunks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fmtRender is render as it was written with fmt: the oracle the one-buffer
// render must match byte for byte.
func fmtRender(cl *ChunkList) []byte {
	var b strings.Builder
	b.WriteString("#EXTM3U\n")
	fmt.Fprintf(&b, "#X-BROADCAST:%s\n", cl.BroadcastID)
	fmt.Fprintf(&b, "#X-VERSION:%d\n", cl.Version)
	for _, c := range cl.Chunks {
		fmt.Fprintf(&b, "#EXTINF:%.3f,%d\nchunk/%d\n", c.Duration.Seconds(), c.Seq, c.Seq)
	}
	if cl.Ended {
		b.WriteString("#EXT-X-ENDLIST\n")
	}
	return []byte(b.String())
}

// render writes what the fmt renderer wrote, over seeded random lists —
// rounding boundaries (2.9995 s), zero and negative durations, the longest
// durations, long IDs, versions and sequences past 2⁶³ — into one
// buffer of exactly its length.
func TestRenderMatchesFmt(t *testing.T) {
	durations := []time.Duration{
		0, time.Nanosecond, -time.Nanosecond, 2999500 * time.Microsecond, 2999499999,
		999500 * time.Microsecond, 3 * time.Second, -3 * time.Second,
		math.MaxInt64, math.MinInt64,
	}
	src := rng.New(34)
	for i := 0; i < 2000; i++ {
		cl := &ChunkList{
			BroadcastID: strings.Repeat("b", src.Intn(300)),
			Version:     src.Uint64() >> (src.Intn(4) * 21),
			Ended:       src.Bool(0.5),
		}
		for n := src.Intn(WindowSize + 1); n > 0; n-- {
			d := durations[src.Intn(len(durations))]
			if src.Bool(0.5) {
				d = time.Duration(src.Uint64() >> (1 + src.Intn(40)))
			}
			cl.Chunks = append(cl.Chunks, ChunkRef{Seq: src.Uint64() >> (src.Intn(4) * 21), Duration: d})
		}
		got, want := cl.render(), fmtRender(cl)
		if !bytes.Equal(got, want) {
			t.Fatalf("list %d: render\n%s\nwant\n%s", i, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("list %d: render buffer len %d cap %d, want exact", i, len(got), cap(got))
		}
	}
}

// A render is one allocation: the exact-size buffer.
func TestRenderAllocBudget(t *testing.T) {
	cl := &ChunkList{BroadcastID: "b1", Version: 1 << 63, Ended: true, Chunks: threeSecondRefs(WindowSize)}
	if allocs := testing.AllocsPerRun(100, func() { cl.render() }); allocs != 1 {
		t.Fatalf("render of a %d-chunk list allocates %v times, want 1", len(cl.Chunks), allocs)
	}
}

// A parse is three allocations whatever the list's length: the list, its
// broadcast ID and its chunks.
func TestParseChunkListAllocBudget(t *testing.T) {
	for _, n := range []uint64{1, WindowSize} {
		cl := &ChunkList{BroadcastID: "b1", Version: 7, Ended: true, Chunks: threeSecondRefs(n)}
		data := cl.Marshal()
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ParseChunkList(data); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 3 {
			t.Fatalf("parse of a %d-chunk list allocates %v times, want 3", n, allocs)
		}
	}
}

// threeSecondRefs is n references to 3-s chunks, sequences 0 to n-1.
func threeSecondRefs(n uint64) []ChunkRef {
	refs := make([]ChunkRef, n)
	for seq := range refs {
		refs[seq] = ChunkRef{Seq: uint64(seq), Duration: 3 * time.Second}
	}
	return refs
}
