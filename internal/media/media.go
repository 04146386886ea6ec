// Package media models the video data plane of the reproduction: 40 ms
// frames carrying broadcaster-side capture timestamps in keyframe metadata
// (the paper reads timestamp ① / ⑤ from exactly this metadata, §4.3), the
// 3-second chunks HLS operates on, chunk lists, and a compact binary wire
// codec used by the RTMP-like protocol.
package media

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// FrameDuration is the length of one video frame (§4.1: ≈40 ms, 25 fps).
const FrameDuration = 40 * time.Millisecond

// DefaultChunkDuration is the chunk length the paper observed for >85.9% of
// HLS broadcasts (§5.2): 3 s = 75 frames.
const DefaultChunkDuration = 3 * time.Second

// FramesPerChunk converts a chunk duration to a frame count.
func FramesPerChunk(chunk time.Duration) int {
	n := int(chunk / FrameDuration)
	if n < 1 {
		n = 1
	}
	return n
}

// Frame is one unit of the RTMP data path.
type Frame struct {
	// Seq is the frame sequence number within its broadcast, from 0.
	Seq uint64
	// CapturedAt is the broadcaster-device capture timestamp. For
	// keyframes it is embedded in metadata on the wire, mirroring how the
	// paper extracted ① and ⑤; for delta frames it travels in the header
	// of our protocol (a simplification that does not affect delay
	// accounting, which only reads keyframe timestamps).
	CapturedAt time.Time
	// Keyframe marks an intra-coded frame.
	Keyframe bool
	// Payload is the (synthetic) encoded video data.
	Payload []byte
	// Sig optionally carries the §7.2 Ed25519 signature over the frame's
	// unsigned wire bytes. It rides inside chunks so HLS viewers can
	// verify integrity end-to-end, exactly as the paper's countermeasure
	// proposes ("Wowza can securely forward the broadcaster's public key
	// to each viewer, and they can verify the integrity of the stream").
	Sig []byte
}

// UnsignedBytes returns the frame's wire form without its signature — the
// exact bytes the §7.2 signature covers.
func (f *Frame) UnsignedBytes() []byte {
	cp := *f
	cp.Sig = nil
	return MarshalFrame(nil, &cp)
}

// Chunk is a group of consecutive frames — the HLS data unit. Once a chunk
// is reachable from a store it is immutable but for its own seal: stores,
// caches and handlers share the one *Chunk, and the first Wire call seals it.
type Chunk struct {
	// Seq is the chunk sequence number within its broadcast, from 0.
	Seq uint64
	// Frames are the member frames in order; the chunk owns their array.
	// Once the chunk is sealed (Wire) their payloads and signatures are
	// views into its wire form. The seal rewrites the elements, so on a
	// chunk others can reach they are read only after a Wire call (Size and
	// FirstCapturedAt read them; len(Frames) and Duration do not).
	Frames []Frame

	seal sync.Once
	wire []byte
	// length caches LengthValue; with it the struct is 80 bytes, its size
	// class.
	length atomic.Pointer[[1]string]
}

// Wire returns the chunk's wire form — MarshalChunk's bytes — and seals the
// chunk. The first caller (the origin's journal append, else the first serve)
// marshals it and re-points every frame into the bytes, so the frames are what
// SealedChunk would decode from them: Payload and Sig become views of the wire
// (a Sig that is not FrameSigSize bytes is not on the wire and becomes nil),
// CapturedAt is the instant the wire carries, in UTC, and whatever the frames
// viewed before is no longer held. Every later caller gets the same bytes. A
// decoded chunk (SealedChunk, UnmarshalChunk) is born sealed over the bytes it
// came from. The bytes are shared and must not be modified; neither may Seq
// or Frames be.
//
//livesim:hotpath TestWireSealsOnce
func (c *Chunk) Wire() []byte {
	c.seal.Do(func() {
		c.wire = MarshalChunk(c)
		off := chunkHeaderSize
		for i := range c.Frames {
			f := &c.Frames[i]
			start := off + frameHeaderSize
			end := start + len(f.Payload)
			f.CapturedAt = time.Unix(0, f.CapturedAt.UnixNano()).UTC()
			f.Payload = c.wire[start:end:end]
			off = end
			if len(f.Sig) == FrameSigSize {
				off += FrameSigSize
				f.Sig = c.wire[end:off:off]
			} else {
				f.Sig = nil
			}
		}
	})
	return c.wire
}

// LengthValue returns len(Wire()) in decimal as a ready-made header value
// (an HTTP Content-Length): built by the first caller, on the first serve
// rather than at the seal, and shared by every later one. len and cap are
// both 1, so an append to it cannot write into the shared array; its element
// must not be modified.
//
//livesim:hotpath TestHeaderValuesBuiltOnce
func (c *Chunk) LengthValue() []string {
	if p := c.length.Load(); p != nil {
		return p[:]
	}
	return c.buildLengthValue()
}

// buildLengthValue is LengthValue's first call; of concurrent first callers,
// one value wins and all of them return it.
func (c *Chunk) buildLengthValue() []string {
	p := &[1]string{strconv.Itoa(len(c.Wire()))}
	if !c.length.CompareAndSwap(nil, p) {
		p = c.length.Load()
	}
	return p[:]
}

// Duration returns the play time covered by the chunk.
func (c *Chunk) Duration() time.Duration {
	return time.Duration(len(c.Frames)) * FrameDuration
}

// Size returns the total payload bytes in the chunk. It reads the frames, so
// on a chunk others can reach it follows a Wire call.
func (c *Chunk) Size() int {
	n := 0
	for i := range c.Frames {
		n += len(c.Frames[i].Payload)
	}
	return n
}

// FirstCapturedAt returns the capture time of the chunk's first frame, the
// timestamp the paper uses for chunk-level delay (⑤). It reads the frames, so
// on a chunk others can reach it follows a Wire call.
func (c *Chunk) FirstCapturedAt() time.Time {
	if len(c.Frames) == 0 {
		return time.Time{}
	}
	return c.Frames[0].CapturedAt
}

// Encoder synthesizes a frame stream with a realistic size profile: a
// configurable bitrate, periodic keyframes several times larger than delta
// frames, and lognormal size variation.
type Encoder struct {
	seq         uint64
	bytesPerFrm float64
	src         *rng.Source
	sinceKey    int
}

// The encoder's frame-size profile.
const (
	// keyframeInterval is frames between keyframes: one per 3 s chunk,
	// which lets every chunk start with a keyframe.
	keyframeInterval = int(DefaultChunkDuration / FrameDuration)
	// keyframeMultiple is the size ratio keyframe:delta.
	keyframeMultiple = 6
	// sizeJitterSigma is the lognormal sigma on frame size.
	sizeJitterSigma = 0.2
)

// EncoderConfig parameterizes an Encoder.
type EncoderConfig struct {
	// BitsPerSec is the target video bitrate (default 500 kbit/s, typical
	// of 2015 mobile livestreams).
	BitsPerSec float64
}

// NewEncoder builds an Encoder; zero config fields take defaults.
func NewEncoder(cfg EncoderConfig, src *rng.Source) *Encoder {
	if cfg.BitsPerSec == 0 {
		cfg.BitsPerSec = 500_000
	}
	fps := float64(time.Second / FrameDuration)
	return &Encoder{
		bytesPerFrm: cfg.BitsPerSec / 8 / fps,
		src:         src,
	}
}

// Next produces the next frame with the given capture timestamp.
func (e *Encoder) Next(capturedAt time.Time) Frame {
	key := e.sinceKey == 0
	e.sinceKey++
	if e.sinceKey >= keyframeInterval {
		e.sinceKey = 0
	}
	// Keep the average frame size at bytesPerFrm: deltas shrink to
	// compensate for keyframe inflation.
	const deltaShare = float64(keyframeInterval) / float64(keyframeInterval-1+keyframeMultiple)
	size := e.bytesPerFrm * deltaShare
	if key {
		size *= keyframeMultiple
	}
	size *= e.src.LogNormal(0, sizeJitterSigma)
	if size < 16 {
		size = 16
	}
	f := Frame{
		Seq:        e.seq,
		CapturedAt: capturedAt,
		Keyframe:   key,
		Payload:    make([]byte, int(size)),
	}
	// Fill a recognizable pattern so tampering tests can detect rewrites.
	for i := range f.Payload {
		f.Payload[i] = byte(f.Seq + uint64(i))
	}
	e.seq++
	return f
}

// --- Wire codec -----------------------------------------------------------

// Frame wire layout (big-endian):
//
//	seq        uint64
//	capturedAt int64 (UnixNano)
//	flags      uint8 (bit0 = keyframe, bit1 = signed)
//	payloadLen uint32
//	payload    [payloadLen]byte
//	sig        [64]byte (only when bit1 set)
const frameHeaderSize = 8 + 8 + 1 + 4

// FrameSigSize is the embedded Ed25519 signature length.
const FrameSigSize = 64

// MaxFramePayload bounds a decoded payload to keep a corrupted or malicious
// length prefix from exhausting memory.
const MaxFramePayload = 16 << 20

// ErrFrameTooLarge is returned when a length prefix exceeds MaxFramePayload.
var ErrFrameTooLarge = errors.New("media: frame payload exceeds limit")

// MarshalFrame appends the wire form of f to dst and returns the result.
// A frame with a 64-byte Sig is marshalled with the signed flag; any other
// Sig length is ignored.
func MarshalFrame(dst []byte, f *Frame) []byte {
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint64(hdr[0:8], f.Seq)
	binary.BigEndian.PutUint64(hdr[8:16], uint64(f.CapturedAt.UnixNano()))
	signed := len(f.Sig) == FrameSigSize
	if f.Keyframe {
		hdr[16] |= 1
	}
	if signed {
		hdr[16] |= 2
	}
	binary.BigEndian.PutUint32(hdr[17:21], uint32(len(f.Payload)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, f.Payload...)
	if signed {
		dst = append(dst, f.Sig...)
	}
	return dst
}

// SniffFrame validates the wire form of a frame without copying its payload
// or signature — the zero-allocation check the fan-out hot path uses when no
// tap or verification needs the decoded frame. It returns the encoded length.
func SniffFrame(data []byte) (int, error) {
	if len(data) < frameHeaderSize {
		return 0, fmt.Errorf("media: short frame header: %d bytes", len(data))
	}
	if data[16]&^3 != 0 {
		return 0, fmt.Errorf("media: unknown frame flags %#x", data[16])
	}
	plen := binary.BigEndian.Uint32(data[17:21])
	if plen > MaxFramePayload {
		return 0, ErrFrameTooLarge
	}
	total := frameHeaderSize + int(plen)
	if data[16]&2 != 0 {
		total += FrameSigSize
	}
	if len(data) < total {
		return 0, fmt.Errorf("media: short frame payload: have %d want %d", len(data), total)
	}
	return total, nil
}

// UnmarshalFrame parses one frame from data, returning the frame and the
// number of bytes consumed. The returned frame owns its payload and
// signature (they are copied out of data) — for callers that reuse data for
// the next read or edit the frame. ViewFrame is the copy-free form.
func UnmarshalFrame(data []byte) (Frame, int, error) {
	f, total, err := ViewFrame(data)
	if err != nil {
		return Frame{}, 0, err
	}
	f.Payload = append([]byte(nil), f.Payload...)
	if f.Sig != nil {
		f.Sig = append([]byte(nil), f.Sig...)
	}
	return f, total, nil
}

// ViewFrame is UnmarshalFrame without the copies: the returned frame's
// payload and signature alias data, capped so an append cannot reach the
// bytes that follow. The frame is valid for as long as nothing writes data.
func ViewFrame(data []byte) (Frame, int, error) {
	total, err := SniffFrame(data)
	if err != nil {
		return Frame{}, 0, err
	}
	end := frameHeaderSize + int(binary.BigEndian.Uint32(data[17:21]))
	f := Frame{
		Seq:        binary.BigEndian.Uint64(data[0:8]),
		CapturedAt: time.Unix(0, int64(binary.BigEndian.Uint64(data[8:16]))).UTC(),
		Keyframe:   data[16]&1 != 0,
		Payload:    data[frameHeaderSize:end:end],
	}
	if data[16]&2 != 0 {
		f.Sig = data[end:total:total]
	}
	return f, total, nil
}

// chunkHeaderSize is the chunk wire header: seq uint64, frame count uint32.
const chunkHeaderSize = 8 + 4

// MarshalChunk encodes a chunk from its Frames: seq, frame count, then each
// frame. It always re-encodes — serving paths use c.Wire(), which does this at
// most once; a caller that edited the frames of its own decoded copy (the §7
// interceptor) needs exactly this.
func MarshalChunk(c *Chunk) []byte {
	size := chunkHeaderSize + len(c.Frames)*frameHeaderSize
	for i := range c.Frames {
		size += len(c.Frames[i].Payload)
		if len(c.Frames[i].Sig) == FrameSigSize {
			size += FrameSigSize
		}
	}
	buf := make([]byte, chunkHeaderSize, size)
	binary.BigEndian.PutUint64(buf[0:8], c.Seq)
	binary.BigEndian.PutUint32(buf[8:12], uint32(len(c.Frames)))
	for i := range c.Frames {
		buf = MarshalFrame(buf, &c.Frames[i])
	}
	return buf
}

// UnmarshalChunk decodes a chunk produced by MarshalChunk into a chunk that
// shares nothing with data: the consumed bytes are copied once, and the result
// is SealedChunk over that copy. For a buffer the caller owns and will not
// touch again, SealedChunk skips the copy.
func UnmarshalChunk(data []byte) (*Chunk, error) {
	return SealedChunk(append([]byte(nil), data...))
}

// SealedChunk decodes a chunk's wire form without copying: the frames'
// payloads and signatures are views into wire, and the chunk keeps the
// consumed prefix of wire as its sealed form (Wire returns it). The caller
// hands wire over — nothing may modify it afterwards. This is how one buffer
// serves a chunk's whole life: the bytes an origin journals, an edge receives
// or a replay reads are the bytes every viewer is sent.
func SealedChunk(wire []byte) (*Chunk, error) {
	if len(wire) < chunkHeaderSize {
		return nil, fmt.Errorf("media: short chunk header: %d bytes", len(wire))
	}
	c := &Chunk{Seq: binary.BigEndian.Uint64(wire[0:8])}
	n := int(binary.BigEndian.Uint32(wire[8:12]))
	if n > 1<<20 {
		return nil, fmt.Errorf("media: implausible frame count %d", n)
	}
	// Every frame occupies at least its header, so the input bounds the
	// count before Frames is sized from it.
	if n > (len(wire)-chunkHeaderSize)/frameHeaderSize {
		return nil, fmt.Errorf("media: frame count %d exceeds what %d bytes can hold", n, len(wire))
	}
	c.Frames = make([]Frame, 0, n)
	off := chunkHeaderSize
	for i := 0; i < n; i++ {
		f, used, err := ViewFrame(wire[off:])
		if err != nil {
			return nil, fmt.Errorf("media: frame %d: %w", i, err)
		}
		c.Frames = append(c.Frames, f)
		off += used
	}
	c.seal.Do(func() { c.wire = wire[:off:off] })
	return c, nil
}
