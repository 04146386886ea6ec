package journal

import (
	"errors"
	"sync"

	"repro/internal/metrics"
)

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("journal: writer closed")

// maxPending bounds the bytes waiting for the next group commit. An Append
// that would take a non-empty batch past it blocks until the drain goroutine
// has taken the batch — backpressure, never silent loss; a record above the
// bound is admitted to an empty batch, and a buffer one has grown past twice
// the bound (a bounded batch's never is) is not kept for reuse.
const maxPending = 4 << 20

// WriterConfig tunes a Writer.
type WriterConfig struct {
	// Metrics is the registry the writer's counters register in; nil means
	// a private registry.
	Metrics *metrics.Registry
	// Labels are attached to every instrument (the origin passes its site).
	Labels []metrics.Label
}

// Writer appends records to a Backend with encode-in-place group commit:
// Append frames the record straight into the pending batch under the writer's
// mutex (record order is lock order), and a single background goroutine swaps
// whatever has accumulated for a spare buffer, hands it to one Backend.Append
// (one write + one fsync on the file backend) and keeps it as the next spare.
// The durability cost stays off the caller — the origin's ingest path copies a
// sealed chunk's bytes once and moves on — bursts share a sync, and once the
// two buffers have grown to the working batch size no call allocates.
type Writer struct {
	backend Backend

	mu sync.Mutex
	// cond wakes the drain goroutine (pending became non-empty, or closed)
	// and blocked appenders (pending was taken, or closed).
	cond    *sync.Cond
	pending []byte
	closed  bool
	done    chan struct{}

	appends *metrics.Counter
	batches *metrics.Counter
	errs    *metrics.Counter
}

// NewWriter starts a Writer appending to backend.
func NewWriter(backend Backend, cfg WriterConfig) *Writer {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	w := &Writer{
		backend: backend,
		done:    make(chan struct{}),
		appends: reg.Counter("journal_appends_total", cfg.Labels...),
		batches: reg.Counter("journal_batches_total", cfg.Labels...),
		errs:    reg.Counter("journal_append_errors_total", cfg.Labels...),
	}
	w.cond = sync.NewCond(&w.mu)
	go w.run()
	return w
}

// Open is the one open path of a journaled service: it loads backend,
// replays every intact record into apply, truncates a torn tail, and returns
// a Writer that appends after the intact prefix. It counts
// journal_replayed_records_total and journal_corrupt_tails_total, and
// journal_load_errors_total when Load fails, under cfg's labels. A failed
// Load returns no writer: the caller runs unjournaled rather than append
// after bytes it could not read, which a later good load would replay as one
// history with them. A failed Truncate leaves the tail; the caller still
// serves what it replayed.
func Open(backend Backend, apply func(Record), cfg WriterConfig) *Writer {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	data, err := backend.Load()
	if err != nil {
		cfg.Metrics.Counter("journal_load_errors_total", cfg.Labels...).Inc()
		return nil
	}
	st, _ := Replay(data, func(r Record) error { apply(r); return nil })
	if st.TailCorrupt {
		// Bytes appended after a corrupt region would be unreachable to
		// every future replay.
		cfg.Metrics.Counter("journal_corrupt_tails_total", cfg.Labels...).Inc()
		_ = backend.Truncate(int64(st.ValidBytes))
	}
	cfg.Metrics.Counter("journal_replayed_records_total", cfg.Labels...).Add(int64(st.Records))
	return NewWriter(backend, cfg)
}

// Append frames one record into the next group commit. It blocks only while
// the pending batch is at its bound and fails only after Close.
func (w *Writer) Append(r Record) error {
	size := recordHeaderSize + len(r.BroadcastID) + len(r.Payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	for !w.closed && len(w.pending) > 0 && len(w.pending)+size > maxPending {
		w.cond.Wait()
	}
	if w.closed {
		return ErrClosed
	}
	w.pending = AppendRecord(w.pending, r)
	w.appends.Inc()
	w.cond.Broadcast()
	return nil
}

// Close drains every appended record into the backend and stops the writer.
// Records appended before Close are durable when it returns — which is why
// the origin's crash path closes the writer before wiping its state: the
// journal must hold everything the origin acknowledged.
func (w *Writer) Close() error {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.done
	return nil
}

// run is the group-commit loop: swap a non-empty batch for the spare buffer
// and hand it to the backend as one append, until closed with nothing pending.
func (w *Writer) run() {
	defer close(w.done)
	var spare []byte
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for len(w.pending) == 0 && !w.closed {
			w.cond.Wait()
		}
		if len(w.pending) == 0 {
			return
		}
		batch := w.pending
		w.pending = spare[:0]
		w.cond.Broadcast()
		w.mu.Unlock()
		if err := w.backend.Append(batch); err != nil {
			w.errs.Inc()
		} else {
			w.batches.Inc()
		}
		if spare = batch; cap(spare) > 2*maxPending {
			spare = nil
		}
		w.mu.Lock()
	}
}
