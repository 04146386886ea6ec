// Package wire defines the message framing of the RTMP-like protocol: a
// one-byte type, a big-endian length, and an opaque body. Faithful to the
// weakness the paper exploits in §7, the protocol is unencrypted and — until
// the signature defense is enabled — unauthenticated beyond the plaintext
// broadcast token sent at handshake time.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// MsgType identifies a protocol message.
type MsgType uint8

// Protocol messages.
const (
	// MsgHandshake opens a session; body is a Handshake.
	MsgHandshake MsgType = iota + 1
	// MsgHandshakeAck answers a handshake; body is an Ack.
	MsgHandshakeAck
	// MsgFrame carries one media.Frame (media wire form).
	MsgFrame
	// MsgSignedFrame carries a frame plus an Ed25519 signature:
	// [frameLen uint32][frame][sig 64B] (§7.2 defense).
	MsgSignedFrame
	// MsgEnd announces the end of a broadcast; empty body.
	MsgEnd
)

// Roles in a handshake.
const (
	RoleBroadcaster = "broadcaster"
	RoleViewer      = "viewer"
)

// Ack status codes.
const (
	StatusOK        = "ok"
	StatusBadToken  = "bad-token"
	StatusFull      = "full" // RTMP viewer cap reached: fall back to HLS
	StatusNotFound  = "not-found"
	StatusDuplicate = "duplicate-broadcaster"
	// StatusUnavailable is a retryable refusal: the broadcast is expected
	// back shortly (its origin just restarted and the publisher has not
	// reconnected yet), so clients should back off and redial rather than
	// treat the stream as gone.
	StatusUnavailable = "unavailable"
)

// MaxBody bounds message bodies against malicious length prefixes.
const MaxBody = 32 << 20

// ErrBodyTooLarge reports a length prefix above MaxBody.
var ErrBodyTooLarge = errors.New("wire: message body exceeds limit")

// Handshake is the session-opening message. Token is sent in plaintext —
// the §7.1 vulnerability.
type Handshake struct {
	Role        string
	BroadcastID string
	Token       string
	// BufferMs is the stream buffer the viewer requests; the paper's
	// crawler sets 0 so every frame is pushed immediately (§4.3).
	BufferMs uint32
}

// Ack is the server's handshake reply.
type Ack struct {
	Status  string
	Message string
	// ResumeSeq is the next frame sequence the server expects from a
	// broadcaster — nonzero when a recovered origin tells a reconnecting
	// publisher where to resume (frames below it are already durable). It
	// rides the encoding as an optional trailing field, so peers without it
	// interoperate.
	ResumeSeq uint64
}

// Message is one framed protocol unit.
type Message struct {
	Type MsgType
	Body []byte
}

// headerSize is the framing overhead: one type byte plus a big-endian length.
const headerSize = 5

// AppendMessage appends the framed form of m to dst and returns the extended
// slice. It is the allocation-free building block behind WriteMessage and
// EncodeMessage.
//
//livesim:hotpath TestWriteMessageAllocFree
func AppendMessage(dst []byte, m Message) ([]byte, error) {
	if len(m.Body) > MaxBody {
		return dst, ErrBodyTooLarge
	}
	var hdr [headerSize]byte
	hdr[0] = byte(m.Type)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(m.Body)))
	dst = append(dst, hdr[:]...)
	return append(dst, m.Body...), nil
}

// Encoded is one fully framed message — header and body in a single
// contiguous buffer, exactly the bytes WriteMessage puts on the wire. The
// fan-out path frames a frame once per arrival and hands the same Encoded to
// every viewer, replacing N per-viewer framings (and their copies) with one.
// An Encoded is immutable once built: it may be shared across goroutines.
type Encoded []byte

// Type returns the framed message's type.
func (e Encoded) Type() MsgType {
	if len(e) < headerSize {
		return 0
	}
	return MsgType(e[0])
}

// Body returns the framed message's body, aliasing the encoded buffer.
func (e Encoded) Body() []byte {
	if len(e) < headerSize {
		return nil
	}
	return e[headerSize:]
}

// EncodeMessage frames m once; the result can be written as it is to any
// number of connections.
//
//livesim:hotpath TestEncodeMessageOneAlloc
func EncodeMessage(m Message) (Encoded, error) {
	//lint:allow hotpathescape the framed buffer is the product; the fan-out retains it by design
	buf := make([]byte, 0, headerSize+len(m.Body))
	buf, err := AppendMessage(buf, m)
	if err != nil {
		return nil, err
	}
	return Encoded(buf), nil
}

// Reader reads messages from a buffered stream preserving their framed form:
// each Encoded it returns is byte-for-byte what the peer wrote.
// Whenever it has to read, it copies every complete message already sitting
// in the bufio.Reader into one buffer of exactly their size — the batch, the
// read's one allocation — and hands them out one by one as capped views of
// it, so an append on one message can never reach the next. A batch is only
// what is already buffered: Next waits for the one message it returns and
// never for another. A message larger than the bufio.Reader's buffer is read
// into a buffer of its own. Relaying a message to N viewers needs no
// re-framing and no further copies.
type Reader struct {
	br *bufio.Reader
	// batch holds the messages of the last read not yet handed out.
	batch []byte
}

// NewReader returns a Reader over br. The Reader owns br from here on.
func NewReader(br *bufio.Reader) *Reader {
	return &Reader{br: br}
}

// Next returns the next message. A length prefix above MaxBody is reported,
// as ErrBodyTooLarge, when that message is the next one to read: the complete
// messages buffered before it are delivered first.
//
//livesim:hotpath TestReaderOneAllocPerBatch
func (r *Reader) Next() (Encoded, error) {
	if len(r.batch) == 0 {
		if err := r.fill(); err != nil {
			return nil, err
		}
	}
	end := headerSize + int(binary.BigEndian.Uint32(r.batch[1:]))
	e := Encoded(r.batch[:end:end])
	r.batch = r.batch[end:]
	return e, nil
}

// fill reads the next batch: at least one whole message, plus every complete
// message buffered behind it.
//
//livesim:hotpath TestReaderOneAllocPerBatch
func (r *Reader) fill() error {
	// The spent batch's empty tail still points into it: drop it before
	// blocking, so an idle publisher pins nothing.
	r.batch = nil
	hdr, err := r.br.Peek(headerSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxBody {
		return ErrBodyTooLarge
	}
	size := headerSize + int(n)
	if size > r.br.Size() {
		// Too big to be buffered whole: one message, in its own buffer.
		//lint:allow hotpathescape the framed buffer is the product; the fan-out retains it by design
		buf := make([]byte, size)
		if _, err := io.ReadFull(r.br, buf); err != nil {
			return fmt.Errorf("wire: read body: %w", err)
		}
		r.batch = buf
		return nil
	}
	if _, err := r.br.Peek(size); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("wire: read body: %w", err)
	}
	// Every complete message behind the first joins the batch; the walk
	// stops at a torn one or one over MaxBody, which stay in br.
	buffered, _ := r.br.Peek(r.br.Buffered())
	for size+headerSize <= len(buffered) {
		n := binary.BigEndian.Uint32(buffered[size+1:])
		if n > MaxBody || size+headerSize+int(n) > len(buffered) {
			break
		}
		size += headerSize + int(n)
	}
	//lint:allow hotpathescape the batch is the product; the fan-out retains its messages by design
	r.batch = make([]byte, size)
	copy(r.batch, buffered)
	_, err = r.br.Discard(size)
	return err
}

// ReadEncoded is Reader.Next for a reader that cannot be buffered. It must not
// read past the message, so the header goes into a scratch of its own first:
// two allocations and two reads per message. A loop that reads many messages
// should own a bufio.Reader and a Reader over it.
func ReadEncoded(r io.Reader) (Encoded, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxBody {
		return nil, ErrBodyTooLarge
	}
	buf := make([]byte, headerSize+int(n))
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[headerSize:]); err != nil {
		return nil, fmt.Errorf("wire: read body: %w", err)
	}
	return Encoded(buf), nil
}

// writeBufs stages header+body for WriteMessage so framing costs no
// allocation and exactly one Write (one syscall on a net.Conn).
var writeBufs = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 4096)
	return &b
}}

// maxPooledBuf bounds what WriteMessage returns to the pool, so one huge
// message cannot pin a huge buffer for the process lifetime.
const maxPooledBuf = 1 << 20

// WriteMessage frames and writes a message with a single Write. The header
// and body are staged in a pooled buffer, so steady-state calls allocate
// nothing.
//
//livesim:hotpath TestWriteMessageAllocFree
func WriteMessage(w io.Writer, m Message) error {
	if len(m.Body) > MaxBody {
		return ErrBodyTooLarge
	}
	bp := writeBufs.Get().(*[]byte)
	buf, _ := AppendMessage((*bp)[:0], m)
	_, err := w.Write(buf)
	if cap(buf) <= maxPooledBuf {
		*bp = buf[:0]
		writeBufs.Put(bp)
	}
	if err != nil {
		return fmt.Errorf("wire: write: %w", err)
	}
	return nil
}

// ReadMessage reads one framed message into a fresh buffer. It reads exactly
// the message and nothing behind it, so it suits a single exchange on a
// stream something else reads next (the handshake ack); a loop that reads
// many messages should own a bufio.Reader and a Reader over it.
func ReadMessage(r io.Reader) (Message, error) {
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxBody {
		return Message{}, ErrBodyTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Message{}, fmt.Errorf("wire: read body: %w", err)
	}
	return Message{Type: MsgType(hdr[0]), Body: body}, nil
}

// appendString appends a length-prefixed string.
func appendString(dst []byte, s string) []byte {
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(s)))
	dst = append(dst, l[:]...)
	return append(dst, s...)
}

// readString consumes a length-prefixed string.
func readString(data []byte) (string, []byte, error) {
	if len(data) < 2 {
		return "", nil, errors.New("wire: short string length")
	}
	n := int(binary.BigEndian.Uint16(data))
	if len(data) < 2+n {
		return "", nil, errors.New("wire: short string body")
	}
	return string(data[2 : 2+n]), data[2+n:], nil
}

// MarshalHandshake encodes a Handshake body into a buffer sized once.
func MarshalHandshake(h Handshake) []byte {
	buf := make([]byte, 0, 3*2+len(h.Role)+len(h.BroadcastID)+len(h.Token)+4)
	buf = appendString(buf, h.Role)
	buf = appendString(buf, h.BroadcastID)
	buf = appendString(buf, h.Token)
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], h.BufferMs)
	return append(buf, b[:]...)
}

// maxHandshakeBody is the longest body MarshalHandshake can encode: three
// uint16-prefixed strings and the 4-byte buffer field.
const maxHandshakeBody = 3*(2+math.MaxUint16) + 4

// ReadHandshake reads and decodes the session-opening message. Any other
// message type, or a declared length no Handshake can have, is refused
// before the body is allocated, so an unauthenticated peer costs the server
// at most maxHandshakeBody bytes.
func ReadHandshake(r io.Reader) (Handshake, error) {
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Handshake{}, err
	}
	if t := MsgType(hdr[0]); t != MsgHandshake {
		return Handshake{}, fmt.Errorf("wire: message type %d, want handshake", t)
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxHandshakeBody {
		return Handshake{}, fmt.Errorf("wire: handshake body of %d bytes: %w", n, ErrBodyTooLarge)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Handshake{}, fmt.Errorf("wire: read handshake body: %w", err)
	}
	return UnmarshalHandshake(body)
}

// UnmarshalHandshake decodes a Handshake body.
func UnmarshalHandshake(data []byte) (Handshake, error) {
	var h Handshake
	var err error
	if h.Role, data, err = readString(data); err != nil {
		return h, fmt.Errorf("wire: handshake role: %w", err)
	}
	if h.BroadcastID, data, err = readString(data); err != nil {
		return h, fmt.Errorf("wire: handshake broadcast: %w", err)
	}
	if h.Token, data, err = readString(data); err != nil {
		return h, fmt.Errorf("wire: handshake token: %w", err)
	}
	if len(data) < 4 {
		return h, errors.New("wire: handshake missing buffer")
	}
	h.BufferMs = binary.BigEndian.Uint32(data)
	return h, nil
}

// MarshalAck encodes an Ack body. The ResumeSeq field is appended only when
// nonzero, keeping the base encoding byte-identical to the pre-resume wire
// form.
func MarshalAck(a Ack) []byte {
	buf := appendString(nil, a.Status)
	buf = appendString(buf, a.Message)
	if a.ResumeSeq != 0 {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], a.ResumeSeq)
		buf = append(buf, b[:]...)
	}
	return buf
}

// UnmarshalAck decodes an Ack body. A missing trailing ResumeSeq decodes as
// zero (an old peer, or a stream with nothing to resume).
func UnmarshalAck(data []byte) (Ack, error) {
	var a Ack
	var err error
	if a.Status, data, err = readString(data); err != nil {
		return a, fmt.Errorf("wire: ack status: %w", err)
	}
	if a.Message, data, err = readString(data); err != nil {
		return a, fmt.Errorf("wire: ack message: %w", err)
	}
	if len(data) >= 8 {
		a.ResumeSeq = binary.BigEndian.Uint64(data)
	}
	return a, nil
}

// SignatureSize is the Ed25519 signature length used by MsgSignedFrame.
const SignatureSize = 64

// MarshalSignedFrame encodes [frameLen][frameBytes][sig].
func MarshalSignedFrame(frameBytes, sig []byte) ([]byte, error) {
	if len(sig) != SignatureSize {
		return nil, fmt.Errorf("wire: signature length %d, want %d", len(sig), SignatureSize)
	}
	buf := make([]byte, 4, 4+len(frameBytes)+SignatureSize)
	binary.BigEndian.PutUint32(buf, uint32(len(frameBytes)))
	buf = append(buf, frameBytes...)
	return append(buf, sig...), nil
}

// UnmarshalSignedFrame decodes a signed-frame body into frame bytes and
// signature. Both alias data, capped so an append cannot reach the bytes that
// follow.
func UnmarshalSignedFrame(data []byte) (frameBytes, sig []byte, err error) {
	if len(data) < 4 {
		return nil, nil, errors.New("wire: short signed frame")
	}
	n := binary.BigEndian.Uint32(data)
	if uint64(len(data)) < 4+uint64(n)+SignatureSize {
		return nil, nil, errors.New("wire: truncated signed frame")
	}
	end := 4 + int(n)
	frameBytes = data[4:end:end]
	sig = data[end : end+SignatureSize : end+SignatureSize]
	return frameBytes, sig, nil
}
