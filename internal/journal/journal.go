// Package journal is the origin's write-ahead log: a length-prefixed,
// CRC-checked record stream that survives a process crash and is replayed on
// restart to rehydrate broadcast state (DESIGN.md §6.2). The paper's delivery
// path hangs every broadcast off a single Wowza origin (§4.1); journaling the
// three state transitions that matter — broadcast create, chunk seal,
// broadcast end — is what turns that single point of failure into a node that
// can crash and come back mid-broadcast.
//
// Records are framed as
//
//	length  uint32  // bytes after this field (crc through payload)
//	crc     uint32  // IEEE CRC-32 over type, idLen, id, payload
//	type    uint8
//	idLen   uint16
//	id      [idLen]byte
//	payload [...]byte
//
// so a reader can always distinguish a clean end of journal from a torn or
// corrupted tail: a short read is truncation, a CRC mismatch is corruption,
// and Replay discards everything from the first damaged record on — the
// records before it were durable, the ones after it cannot be trusted.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// RecordType identifies one journaled state transition.
type RecordType uint8

// The four origin state transitions worth making durable. Frame arrivals are
// deliberately NOT journaled: the ingest budget (one allocation per arrival,
// DESIGN.md §5a) leaves no room for per-frame durability, and
// sealing is the moment frames become externally visible anyway — a crash
// loses at most one partial chunk, which the reconnecting publisher re-sends
// by sequence.
const (
	// RecordCreate marks the first frame of a broadcast reaching the origin.
	RecordCreate RecordType = iota + 1
	// RecordSeal carries one sealed chunk (media.MarshalChunk payload).
	RecordSeal
	// RecordEnd marks a clean broadcast end.
	RecordEnd
	// RecordRemove marks the origin forgetting a broadcast (Origin.Remove):
	// replay drops what the records before it built.
	RecordRemove
)

// Control-plane state transitions (DESIGN.md §6.3). The control journal
// shares the framing with the origin journal but lives in its own backend,
// so the type spaces never mix in one stream; the offset just keeps them
// visually distinct in hex dumps. BroadcastID carries the broadcast these
// records belong to (empty for CtrlRegister, which is keyed by user);
// payloads are the JSON codecs in internal/control.
const (
	// RecordCtrlRegister journals one user registration.
	RecordCtrlRegister RecordType = iota + 16
	// RecordCtrlStart journals a broadcast start: token, broadcaster,
	// origin assignment, addresses, location, private allow-list.
	RecordCtrlStart
	// RecordCtrlEnd journals a broadcast end (clean or forced).
	RecordCtrlEnd
	// RecordCtrlKey journals a broadcaster public-key registration (§7.2).
	RecordCtrlKey
	// RecordCtrlJoin journals one viewer join (and, for private
	// broadcasts, the minted per-viewer token the origin validates).
	RecordCtrlJoin
)

// Tenancy state transitions (DESIGN.md §11). Same stream as the control
// records above, offset again so the ranges stay visually distinct.
// BroadcastID is reused to carry the tenant ID (tenant rows, usage rollups)
// or the API key (issue/revoke); payloads are JSON codecs in
// internal/control.
const (
	// RecordCtrlTenant journals a tenant creation: the full tenant row,
	// replayed as an idempotent upsert.
	RecordCtrlTenant RecordType = iota + 32
	// RecordCtrlTenantPlan journals a plan change for an existing tenant.
	RecordCtrlTenantPlan
	// RecordCtrlTenantStatus journals a suspend or resume.
	RecordCtrlTenantStatus
	// RecordCtrlKeyIssue journals an API-key issuance.
	RecordCtrlKeyIssue
	// RecordCtrlKeyRevoke journals an API-key revocation.
	RecordCtrlKeyRevoke
	// RecordCtrlUsage journals one per-tenant per-day usage rollup. The
	// payload carries ABSOLUTE cumulative day totals, never deltas: replay
	// assigns, so a torn tail can lose the newest rollup but can never
	// double-count an older one.
	RecordCtrlUsage
)

// Record is one journal entry.
type Record struct {
	Type        RecordType
	BroadcastID string
	// Payload is type-specific: the marshalled chunk for RecordSeal, empty
	// for RecordCreate, RecordEnd and RecordRemove.
	Payload []byte
}

// MaxRecord bounds a decoded record body against corrupted length prefixes.
// It comfortably holds the largest legitimate payload (one marshalled chunk,
// itself bounded by media.MaxFramePayload per frame).
const MaxRecord = 64 << 20

// recordHeaderSize is the fixed framing overhead: length + crc + type + idLen.
const recordHeaderSize = 4 + 4 + 1 + 2

// ErrTruncated reports a record cut short — the torn tail a crash mid-append
// leaves behind.
var ErrTruncated = errors.New("journal: truncated record")

// ErrCorrupt reports a record whose CRC or framing does not check out.
var ErrCorrupt = errors.New("journal: corrupt record")

// AppendRecord appends the framed form of r to dst and returns the extended
// slice.
func AppendRecord(dst []byte, r Record) []byte {
	body := 1 + 2 + len(r.BroadcastID) + len(r.Payload)
	var hdr [recordHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(4+body)) // crc + body
	hdr[8] = byte(r.Type)
	binary.BigEndian.PutUint16(hdr[9:11], uint16(len(r.BroadcastID)))
	start := len(dst)
	dst = append(dst, hdr[:]...)
	dst = append(dst, r.BroadcastID...)
	dst = append(dst, r.Payload...)
	crc := crc32.ChecksumIEEE(dst[start+8:])
	binary.BigEndian.PutUint32(dst[start+4:start+8], crc)
	return dst
}

// DecodeRecord parses one record from the head of data, returning the record
// and the encoded length consumed. ErrTruncated means data ends mid-record;
// ErrCorrupt means the framing or CRC is damaged. The returned record's
// BroadcastID and Payload are copied out of data.
func DecodeRecord(data []byte) (Record, int, error) {
	if len(data) < 8 {
		return Record{}, 0, ErrTruncated
	}
	n := binary.BigEndian.Uint32(data[0:4])
	if n < 4+1+2 || n > MaxRecord {
		return Record{}, 0, fmt.Errorf("%w: implausible length %d", ErrCorrupt, n)
	}
	total := 4 + int(n)
	if len(data) < total {
		return Record{}, 0, ErrTruncated
	}
	want := binary.BigEndian.Uint32(data[4:8])
	if got := crc32.ChecksumIEEE(data[8:total]); got != want {
		return Record{}, 0, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	r := Record{Type: RecordType(data[8])}
	idLen := int(binary.BigEndian.Uint16(data[9:11]))
	if recordHeaderSize+idLen > total {
		return Record{}, 0, fmt.Errorf("%w: id overruns record", ErrCorrupt)
	}
	r.BroadcastID = string(data[recordHeaderSize : recordHeaderSize+idLen])
	if payload := data[recordHeaderSize+idLen : total]; len(payload) > 0 {
		r.Payload = append([]byte(nil), payload...)
	}
	return r, total, nil
}

// ReplayStats summarizes one Replay pass.
type ReplayStats struct {
	// Records is how many intact records were delivered to the callback.
	Records int
	// ValidBytes is the length of the intact prefix — the offset a recovering
	// origin truncates its backend to before appending new records, so a
	// damaged tail is not entombed in front of future appends.
	ValidBytes int
	// TailCorrupt reports whether a damaged tail (truncated or corrupt) was
	// discarded.
	TailCorrupt bool
}

// Replay walks the journal from the start, invoking fn for each intact
// record. A truncated or corrupt record ends the walk: everything from it on
// is discarded and reported in the stats, not treated as an error — that is
// the expected shape of a journal whose process died mid-append. An error
// from fn aborts the walk and is returned as-is.
func Replay(data []byte, fn func(Record) error) (ReplayStats, error) {
	var st ReplayStats
	off := 0
	for off < len(data) {
		r, n, err := DecodeRecord(data[off:])
		if err != nil {
			st.TailCorrupt = true
			break
		}
		if err := fn(r); err != nil {
			st.ValidBytes = off
			return st, err
		}
		st.Records++
		off += n
	}
	st.ValidBytes = off
	return st, nil
}
