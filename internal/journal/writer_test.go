package journal

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/testutil"
)

// gateBackend is a Mem whose Append announces each batch on entered and then
// waits for a verdict on release: nil stores the batch, an error fails it.
type gateBackend struct {
	*Mem
	entered chan int
	release chan error
}

func newGateBackend() *gateBackend {
	return &gateBackend{Mem: NewMem(), entered: make(chan int), release: make(chan error)}
}

func (g *gateBackend) Append(b []byte) error {
	g.entered <- len(b)
	if err := <-g.release; err != nil {
		return err
	}
	return g.Mem.Append(b)
}

// discardBackend accepts and forgets, so a test measures the writer alone.
type discardBackend struct{}

func (discardBackend) Append([]byte) error   { return nil }
func (discardBackend) Load() ([]byte, error) { return nil, nil }
func (discardBackend) Truncate(int64) error  { return nil }

func counterValue(reg *metrics.Registry, name string) int64 {
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// replayed returns every record the backend holds, failing on a damaged tail.
func replayed(t *testing.T, b Backend) []Record {
	t.Helper()
	data, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	var out []Record
	st, err := Replay(data, func(r Record) error {
		out = append(out, r)
		return nil
	})
	if err != nil || st.TailCorrupt {
		t.Fatalf("replay: %+v (%v)", st, err)
	}
	return out
}

// numbered is a record carrying (appender, n) so replay can check per-appender
// order.
func numbered(appender string, n int) Record {
	return Record{Type: RecordSeal, BroadcastID: appender, Payload: binary.BigEndian.AppendUint32(nil, uint32(n))}
}

// checkPerAppenderOrder asserts recs holds, for each appender, exactly the
// records 0..want[appender]-1 in that order.
func checkPerAppenderOrder(t *testing.T, recs []Record, want map[string]int) {
	t.Helper()
	next := make(map[string]int)
	for _, r := range recs {
		if got := int(binary.BigEndian.Uint32(r.Payload)); got != next[r.BroadcastID] {
			t.Fatalf("appender %s: record %d where %d was due", r.BroadcastID, got, next[r.BroadcastID])
		}
		next[r.BroadcastID]++
	}
	for id, n := range want {
		if next[id] != n {
			t.Fatalf("appender %s: %d records durable, %d acknowledged", id, next[id], n)
		}
	}
}

// TestWriterConcurrentAppenders: with many goroutines appending at once,
// nothing is lost and each appender's records replay in the order it appended
// them.
func TestWriterConcurrentAppenders(t *testing.T) {
	testutil.CheckGoroutines(t)
	const appenders, each = 8, 500
	mem := NewMem()
	w := NewWriter(mem, WriterConfig{})
	want := make(map[string]int)
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		id := string(rune('a' + a))
		want[id] = each
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := w.Append(numbered(id, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	w.Close()
	recs := replayed(t, mem)
	if len(recs) != appenders*each {
		t.Fatalf("%d records durable, want %d", len(recs), appenders*each)
	}
	checkPerAppenderOrder(t, recs, want)
}

// TestWriterCloseRacesAppend: an Append that races Close either reports
// ErrClosed or is durable when Close returns — exactly the acknowledged
// records are in the backend, and nothing panics.
func TestWriterCloseRacesAppend(t *testing.T) {
	testutil.CheckGoroutines(t)
	for round := 0; round < 20; round++ {
		mem := NewMem()
		w := NewWriter(mem, WriterConfig{})
		const appenders = 4
		acked := make([]int, appenders)
		var wg sync.WaitGroup
		started := make(chan struct{}, appenders)
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				id := string(rune('a' + a))
				for i := 0; ; i++ {
					err := w.Append(numbered(id, i))
					if i == 0 {
						started <- struct{}{}
					}
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						t.Error(err)
						return
					}
					acked[a]++
				}
			}(a)
		}
		for a := 0; a < appenders; a++ {
			<-started
		}
		w.Close()
		// Close has returned: what is durable now must already be everything
		// any appender was told succeeded.
		recs := replayed(t, mem)
		wg.Wait()
		want := make(map[string]int)
		for a, n := range acked {
			want[string(rune('a'+a))] = n
		}
		checkPerAppenderOrder(t, recs, want)
		if err := w.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
}

// TestWriterBackpressure: while the backend is busy, appends collect in the
// pending batch up to its bound; the append that would cross it blocks, and
// the drain taking the batch is what releases it. A record larger than the
// whole bound is still admitted when the batch is empty.
func TestWriterBackpressure(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := newGateBackend()
	w := NewWriter(g, WriterConfig{})
	if err := w.Append(numbered("a", 0)); err != nil {
		t.Fatal(err)
	}
	<-g.entered // the drain holds batch 1 inside the backend; pending is empty

	oversize := Record{Type: RecordSeal, BroadcastID: "big", Payload: make([]byte, maxPending+1)}
	admitted := make(chan error, 1)
	go func() { admitted <- w.Append(oversize) }()
	select {
	case err := <-admitted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a record above the bound was not admitted to an empty batch")
	}

	blocked := make(chan error, 1)
	go func() { blocked <- w.Append(numbered("a", 1)) }()
	select {
	case err := <-blocked:
		t.Fatalf("append past the bound returned (%v) while the batch was still pending", err)
	case <-time.After(50 * time.Millisecond):
	}

	g.release <- nil // batch 1 done; the drain now takes the oversize batch
	if n := <-g.entered; n <= maxPending {
		t.Fatalf("batch 2 is %d bytes, want the oversize record alone", n)
	}
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked appender not released when the drain took the batch")
	}
	g.release <- nil
	<-g.entered
	g.release <- nil
	w.Close()
	if recs := replayed(t, g.Mem); len(recs) != 3 || recs[1].BroadcastID != "big" || len(recs[1].Payload) != maxPending+1 {
		t.Fatalf("replayed %d records", len(recs))
	}
}

// TestWriterBackendErrorDropsBatch: a failed group commit loses that batch —
// counted — and the writer carries on with the next.
func TestWriterBackendErrorDropsBatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	reg := metrics.NewRegistry()
	g := newGateBackend()
	w := NewWriter(g, WriterConfig{Metrics: reg})
	if err := w.Append(numbered("lost", 0)); err != nil {
		t.Fatal(err)
	}
	<-g.entered
	g.release <- errors.New("disk full")
	if err := w.Append(numbered("kept", 0)); err != nil {
		t.Fatal(err)
	}
	<-g.entered
	g.release <- nil
	w.Close()
	recs := replayed(t, g.Mem)
	if len(recs) != 1 || recs[0].BroadcastID != "kept" {
		t.Fatalf("replayed %+v, want only the record after the failed batch", recs)
	}
	if errs, batches, appends := counterValue(reg, "journal_append_errors_total"), counterValue(reg, "journal_batches_total"),
		counterValue(reg, "journal_appends_total"); errs != 1 || batches != 1 || appends != 2 {
		t.Fatalf("errors=%d batches=%d appends=%d, want 1 1 2", errs, batches, appends)
	}
}

// TestWriterAppendAllocFree pins the steady state: once the two batch buffers
// have grown, Append frames in place and the drain swaps them — no allocation
// on either side.
func TestWriterAppendAllocFree(t *testing.T) {
	w := NewWriter(discardBackend{}, WriterConfig{})
	defer w.Close()
	r := Record{Type: RecordSeal, BroadcastID: "b-000001", Payload: make([]byte, 40<<10)}
	for i := 0; i < 200; i++ { // grow both buffers well past one record
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Append allocs = %.1f, want 0", allocs)
	}
}
