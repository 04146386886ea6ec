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

// Mem is an in-memory Backend for tests and the chaos harness. Beyond the
// interface it exposes tail-damage helpers so crash schedules can simulate a
// torn or corrupted final write.
type Mem struct {
	mu  sync.Mutex
	buf []byte
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem { return &Mem{} }

// Append implements Backend.
func (m *Mem) Append(b []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.buf = append(m.buf, b...)
	return nil
}

// Load implements Backend; the returned slice is a copy.
func (m *Mem) Load() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.buf...), nil
}

// Truncate implements Backend.
func (m *Mem) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if size < 0 || size > int64(len(m.buf)) {
		return fmt.Errorf("journal: truncate %d outside journal of %d bytes", size, len(m.buf))
	}
	m.buf = m.buf[:size]
	return nil
}

// Len returns the journal size in bytes.
func (m *Mem) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.buf)
}

// CorruptTail flips the low bit of the last n bytes — the fault-injection
// stand-in for a disk write torn mid-sector. A no-op on an empty journal.
func (m *Mem) CorruptTail(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n > len(m.buf) {
		n = len(m.buf)
	}
	for i := len(m.buf) - n; i < len(m.buf); i++ {
		m.buf[i] ^= 1
	}
}

// TruncateTail drops the last n bytes — a crash before the final write
// reached the disk.
func (m *Mem) TruncateTail(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n > len(m.buf) {
		n = len(m.buf)
	}
	m.buf = m.buf[:len(m.buf)-n]
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
