package media

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ChunkRef is one entry in a chunk list: enough for a viewer to decide
// whether the chunk is new and to fetch it. A chunk's address is its
// sequence: the list names it by the relative URI chunk/<seq> (see Marshal).
type ChunkRef struct {
	Seq      uint64
	Duration time.Duration
}

// ChunkList is the HLS playlist analog: the rolling window of recent chunks
// a viewer polls for (§4.1). Version increments on every update so edges can
// detect staleness.
//
// A list handed out by a store is immutable: the origin publishes a fresh
// *ChunkList per update, and edges, handlers and pollers share that pointer.
// Only the goroutine still building a list may set its fields, and only
// before its first Marshal or VersionValue.
type ChunkList struct {
	BroadcastID string
	Version     uint64
	Chunks      []ChunkRef

	marshal sync.Once
	// Ended marks the broadcast as finished (HLS endlist). It sits in the
	// padding after marshal so the cached version value below fits in the
	// struct's 96-byte size class.
	Ended   bool
	raw     []byte
	version atomic.Pointer[[1]string]
}

// WindowSize is how many trailing chunks a list advertises, as live HLS
// playlists do.
const WindowSize = 6

// Marshal renders the list in an m3u8-like text format:
//
//	#EXTM3U
//	#X-BROADCAST:<id>
//	#X-VERSION:<n>
//	#EXTINF:<seconds>,<seq>
//	chunk/<seq>
//	...
//	#EXT-X-ENDLIST          (only when ended)
//
// Each chunk line is a URI relative to the list's own URL (RFC 8216 §4.1):
// a list served at <prefix>/<id>/chunklist.m3u8 names its chunks
// <prefix>/<id>/chunk/<seq>, wherever the prefix mounts the store.
//
// The rendering happens once per list and every caller gets the same bytes,
// which must not be modified — that is what lets an edge answer every poll
// between two updates from one buffer.
func (cl *ChunkList) Marshal() []byte {
	cl.marshal.Do(func() { cl.raw = cl.render() })
	return cl.raw
}

// render builds Marshal's bytes in one allocation: a first pass formats every
// number into a stack scratch to size the buffer exactly, the second appends.
func (cl *ChunkList) render() []byte {
	var scratch [32]byte
	size := len("#EXTM3U\n#X-BROADCAST:\n#X-VERSION:\n") + len(cl.BroadcastID) +
		len(strconv.AppendUint(scratch[:0], cl.Version, 10))
	for _, c := range cl.Chunks {
		size += len("#EXTINF:,\n"+chunkPrefix+"\n") + len(appendSeconds(scratch[:0], c.Duration)) +
			2*len(strconv.AppendUint(scratch[:0], c.Seq, 10))
	}
	if cl.Ended {
		size += len(endList)
	}
	b := make([]byte, 0, size)
	b = append(b, "#EXTM3U\n#X-BROADCAST:"...)
	b = append(b, cl.BroadcastID...)
	b = append(b, "\n#X-VERSION:"...)
	b = strconv.AppendUint(b, cl.Version, 10)
	b = append(b, '\n')
	for _, c := range cl.Chunks {
		b = append(b, "#EXTINF:"...)
		b = appendSeconds(b, c.Duration)
		b = append(b, ',')
		b = strconv.AppendUint(b, c.Seq, 10)
		b = append(b, "\n"+chunkPrefix...)
		b = strconv.AppendUint(b, c.Seq, 10)
		b = append(b, '\n')
	}
	if cl.Ended {
		b = append(b, endList...)
	}
	return b
}

// endList closes an ended broadcast's list.
const endList = "#EXT-X-ENDLIST\n"

// chunkPrefix starts a chunk's line; the chunk's sequence completes it.
const chunkPrefix = "chunk/"

// appendSeconds appends d in seconds to three decimals (fmt's %.3f).
func appendSeconds(b []byte, d time.Duration) []byte {
	return strconv.AppendFloat(b, d.Seconds(), 'f', 3, 64)
}

// VersionValue returns the list's decimal Version as a ready-made header
// value: built by the first caller, on the first serve rather than at
// publish, and shared by every later one. len and cap are both 1, so an
// append to it cannot write into the shared array; its element must not be
// modified.
//
//livesim:hotpath TestHeaderValuesBuiltOnce
func (cl *ChunkList) VersionValue() []string {
	if p := cl.version.Load(); p != nil {
		return p[:]
	}
	return cl.buildVersionValue()
}

// buildVersionValue is VersionValue's first call; of concurrent first
// callers, one value wins and all of them return it.
func (cl *ChunkList) buildVersionValue() []string {
	p := &[1]string{strconv.FormatUint(cl.Version, 10)}
	if !cl.version.CompareAndSwap(nil, p) {
		p = cl.version.Load()
	}
	return p[:]
}

// ParseChunkList parses the Marshal format. It walks the lines in place, so
// a list costs three allocations whatever its length: the list, its
// broadcast ID and its chunks, sized once to the EXTINF tags in data.
func ParseChunkList(data []byte) (*ChunkList, error) {
	header, rest, more := bytes.Cut(data, newline)
	if string(bytes.TrimSpace(header)) != "#EXTM3U" {
		return nil, fmt.Errorf("media: missing #EXTM3U header")
	}
	cl := &ChunkList{}
	if n := bytes.Count(rest, extinf); n > 0 {
		cl.Chunks = make([]ChunkRef, 0, n)
	}
	var pending ChunkRef
	hasPending := false
	for more {
		var line []byte
		line, rest, more = bytes.Cut(rest, newline)
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if id, ok := bytes.CutPrefix(line, []byte("#X-BROADCAST:")); ok {
			cl.BroadcastID = string(id)
		} else if v, ok := bytes.CutPrefix(line, []byte("#X-VERSION:")); ok {
			version, err := strconv.ParseUint(string(v), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("media: bad version: %w", err)
			}
			cl.Version = version
		} else if body, ok := bytes.CutPrefix(line, extinf); ok {
			secs, seqText, ok := bytes.Cut(body, []byte(","))
			if !ok {
				return nil, fmt.Errorf("media: bad EXTINF %q", line)
			}
			d, err := parseSeconds(secs)
			if err != nil {
				return nil, err
			}
			seq, err := strconv.ParseUint(string(seqText), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("media: bad EXTINF seq: %w", err)
			}
			pending, hasPending = ChunkRef{Seq: seq, Duration: d}, true
		} else if string(line) == "#EXT-X-ENDLIST" {
			cl.Ended = true
		} else if line[0] == '#' {
			// Unknown tag: ignore for forward compatibility.
		} else {
			// The chunk's line; the EXTINF title already named its seq.
			if !hasPending {
				return nil, fmt.Errorf("media: URI %q without EXTINF", line)
			}
			cl.Chunks = append(cl.Chunks, pending)
			hasPending = false
		}
	}
	if hasPending {
		return nil, fmt.Errorf("media: EXTINF without URI")
	}
	return cl, nil
}

var (
	newline = []byte("\n")
	extinf  = []byte("#EXTINF:")
)

// parseSeconds reads an EXTINF duration, rounded to the nearest nanosecond
// so that every duration Marshal writes to the millisecond reads back
// exactly (truncating would read 1.001 as 1.000999999s). Durations beyond
// time.Duration's range saturate, as time.Time.Sub does.
func parseSeconds(b []byte) (time.Duration, error) {
	secs, err := strconv.ParseFloat(string(b), 64)
	if err != nil || math.IsNaN(secs) {
		return 0, fmt.Errorf("media: bad EXTINF duration %q", b)
	}
	switch ns := math.Round(secs * float64(time.Second)); {
	case ns >= math.MaxInt64: // float64(MaxInt64) is 2⁶³, one past the range
		return math.MaxInt64, nil
	case ns <= math.MinInt64:
		return math.MinInt64, nil
	default:
		return time.Duration(ns), nil
	}
}
