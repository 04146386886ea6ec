package journal

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// Backend is the byte store a journal writes to. Append receives one or more
// complete framed records per call (a group commit) and must not keep b past
// the call — the Writer reuses the buffer for a later batch; Load returns the
// full journal for replay; Truncate discards everything past the intact prefix
// a replay identified, so a damaged tail never sits in front of future appends.
type Backend interface {
	Append(b []byte) error
	Load() ([]byte, error)
	Truncate(size int64) error
}

// Mem is an in-memory Backend for tests and the chaos harness; CorruptTail
// lets crash schedules simulate a torn final write. The log lives in
// fixed-size segments, not one slice grown by append: that copies the whole
// log each time it runs out of room and then holds up to a quarter more than
// it contains, so a large journal's footprint steps by tens of megabytes at
// moments that depend on timing.
type Mem struct {
	mu sync.Mutex
	// segs are memSegment bytes each; the journal is their first size bytes.
	// Segments past size stay for the appends after a Truncate.
	segs [][]byte
	size int
}

const memSegment = 256 << 10

// NewMem returns an empty in-memory backend.
func NewMem() *Mem { return &Mem{} }

// Append implements Backend.
func (m *Mem) Append(b []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(b) > 0 {
		seg, off := m.size/memSegment, m.size%memSegment
		if seg == len(m.segs) {
			m.segs = append(m.segs, make([]byte, memSegment))
		}
		n := copy(m.segs[seg][off:], b)
		b = b[n:]
		m.size += n
	}
	return nil
}

// Load implements Backend; the returned slice is a copy.
func (m *Mem) Load() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]byte, 0, m.size)
	for _, seg := range m.segs {
		out = append(out, seg[:min(memSegment, m.size-len(out))]...)
	}
	return out, nil
}

// Truncate implements Backend.
func (m *Mem) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if size < 0 || size > int64(m.size) {
		return fmt.Errorf("journal: truncate %d outside journal of %d bytes", size, m.size)
	}
	m.size = int(size)
	return nil
}

// Len returns the journal size in bytes.
func (m *Mem) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.size
}

// CorruptTail flips the low bit of the last n bytes — the fault-injection
// stand-in for a disk write torn mid-sector. A no-op on an empty journal.
func (m *Mem) CorruptTail(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := m.size - min(n, m.size); i < m.size; i++ {
		m.segs[i/memSegment][i%memSegment] ^= 1
	}
}

// File is a file-backed Backend for cmd/livesim: every group commit is one
// write followed by an fsync, so an acknowledged append survives a process
// crash.
type File struct {
	mu sync.Mutex
	f  *os.File
}

// OpenFile opens (creating if needed) the journal file at path.
func OpenFile(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: seek %s: %w", path, err)
	}
	return &File{f: f}, nil
}

// Append implements Backend: one write, one fsync.
func (fb *File) Append(b []byte) error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if _, err := fb.f.Write(b); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := fb.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// Load implements Backend.
func (fb *File) Load() ([]byte, error) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return os.ReadFile(fb.f.Name())
}

// Truncate implements Backend.
func (fb *File) Truncate(size int64) error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if err := fb.f.Truncate(size); err != nil {
		return fmt.Errorf("journal: truncate: %w", err)
	}
	if _, err := fb.f.Seek(size, io.SeekStart); err != nil {
		return fmt.Errorf("journal: seek: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (fb *File) Close() error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.f.Close()
}
