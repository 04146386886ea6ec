package cdn

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hls"
	"repro/internal/media"
	"repro/internal/metrics"
)

// callerFrames builds one chunk's frames whose payloads are slices of one
// buffer the caller keeps, as a direct ingest caller's (or a relay batch's)
// would be, and the chunk's wire form as the publisher meant it.
func callerFrames(seq uint64, n int, base time.Time) (frames []media.Frame, buf []byte, want []byte) {
	const size = 97
	buf = make([]byte, n*size)
	for i := range buf {
		buf[i] = byte(int(seq)*31 + i)
	}
	frames = make([]media.Frame, n)
	for i := range frames {
		at := base.Add(time.Duration(int(seq)*n+i) * media.FrameDuration)
		frames[i] = media.Frame{Seq: seq*uint64(n) + uint64(i), CapturedAt: at, Keyframe: i == 0, Payload: buf[i*size : (i+1)*size]}
	}
	return frames, buf, media.MarshalChunk(&media.Chunk{Seq: seq, Frames: frames})
}

// getBody GETs url and returns its 200 body.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d (%v)", url, resp.StatusCode, err)
	}
	return body
}

// An unjournaled origin holds each served chunk once: the first HTTP serve
// seals the chunk in place, so its frames stop viewing the buffers they were
// ingested from. Overwriting those buffers afterwards changes neither the
// chunk's frames nor what a later serve sends.
func TestUnjournaledServeReleasesIngestBuffers(t *testing.T) {
	o, e := originAndEdge(OriginConfig{})
	defer o.Close()
	srv := httptest.NewServer(hls.Handler("/hls", e))
	defer srv.Close()

	frames, buf, want := callerFrames(0, framesPerTestChunk, time.Now())
	for _, f := range frames {
		o.Ingest("b1", f, f.CapturedAt)
	}
	url := srv.URL + "/hls/b1/chunk/0"
	first := getBody(t, url)
	if !bytes.Equal(first, want) {
		t.Fatal("the first serve differs from what was published")
	}

	c, err := o.Chunk(context.Background(), "b1", 0)
	if err != nil {
		t.Fatal(err)
	}
	wire := c.Wire()
	before := make([]media.Frame, len(c.Frames))
	for i, f := range c.Frames {
		before[i] = f
		before[i].Payload = bytes.Clone(f.Payload)
		if !inside(f.Payload, wire) {
			t.Fatalf("frame %d of the served chunk still views its ingest buffer, not the wire", i)
		}
	}
	for i := range buf {
		buf[i] ^= 0xFF
	}
	if !reflect.DeepEqual(c.Frames, before) {
		t.Fatal("overwriting the ingest buffers changed the served chunk's frames")
	}
	if second := getBody(t, url); !bytes.Equal(second, first) {
		t.Fatal("a second serve differs from the first")
	}
}

// The first request for a fresh chunk races its seal: sixteen goroutines
// each make it at once, by HTTP through the edge, by Edge.Chunk (metered)
// and by Origin.Chunk, while the publisher ingests the next chunk. Every
// body is the publisher's bytes, every frame a view of them, and the meter
// counts exactly the payload bytes the edge served. Run under -race.
func TestFirstServesOfAFreshChunk(t *testing.T) {
	const racers, rounds = 16, 8
	ctx := context.Background()
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
	defer o.Close()
	reg := metrics.NewRegistry()
	u := &metrics.Usage{Frames: reg.Counter("f"), Chunks: reg.Counter("c"), Bytes: reg.Counter("b")}
	e := NewEdge(EdgeConfig{
		Site:    site("e1", "Y"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: o, Usage: u}, nil },
	})
	o.RegisterEdge(e)
	srv := httptest.NewServer(hls.Handler("/hls", e))
	defer srv.Close()

	base := time.Now()
	type chunkIn struct {
		frames []media.Frame
		want   []byte
	}
	in := make([]chunkIn, rounds+1)
	var payload int64 // bytes per chunk, the same for every chunk
	for seq := range in {
		frames, _, want := callerFrames(uint64(seq), framesPerTestChunk, base)
		in[seq] = chunkIn{frames, want}
		payload = int64(len(frames) * len(frames[0].Payload))
	}
	ingest := func(seq int) {
		for _, f := range in[seq].frames {
			o.Ingest("b1", f, f.CapturedAt)
		}
	}

	ingest(0)
	var edgeServes atomic.Int64
	for r := 0; r < rounds; r++ {
		seq, want := uint64(r), in[r].want
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(1)
		go func() { // the publisher, filling the chunk after this one
			defer wg.Done()
			<-start
			ingest(r + 1)
		}()
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				var body []byte
				var c *media.Chunk
				var err error
				switch g % 3 {
				case 0:
					resp, err := http.Get(srv.URL + "/hls/b1/chunk/" + strconv.Itoa(r))
					if err != nil {
						t.Error(err)
						return
					}
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					edgeServes.Add(1)
				case 1:
					if c, err = e.Chunk(ctx, "b1", seq); err != nil {
						t.Error(err)
						return
					}
					edgeServes.Add(1)
				case 2:
					if c, err = o.Chunk(ctx, "b1", seq); err != nil {
						t.Error(err)
						return
					}
				}
				if c != nil {
					body = c.Wire()
					for i, f := range c.Frames {
						if !inside(f.Payload, body) {
							t.Errorf("round %d racer %d: frame %d is not a view of the wire", r, g, i)
							break
						}
					}
				}
				if !bytes.Equal(body, want) {
					t.Errorf("round %d racer %d: chunk %d differs from what was published", r, g, seq)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
	}
	if n, b := u.Chunks.Value(), u.Bytes.Value(); n != edgeServes.Load() || b != n*payload {
		t.Fatalf("meter = (chunks %d, bytes %d), want (%d, %d)", n, b, edgeServes.Load(), edgeServes.Load()*payload)
	}
}
