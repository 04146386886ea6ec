// Package cdn implements the two-tier video CDN the paper reverse-engineered
// (§4.1): a Wowza-like Origin that ingests RTMP, fans frames out to RTMP
// viewers, and assembles HLS chunks; and Fastly-like Edge caches that serve
// HLS viewers, pulling from the origin only when a viewer poll finds an
// expired chunklist — optionally through a co-located gateway edge, the
// §5.3 relay structure that explains the Figure 15 co-location gap.
package cdn

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/hls"
	"repro/internal/journal"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/rtmp"
)

// ErrOriginDown reports a crashed origin. Unlike hls.ErrNotFound it is a
// transient condition: edges treat it like any upstream fault (retry,
// breaker, serve-stale) rather than a terminal "broadcast gone", and
// failover pollers keep polling until the origin recovers.
var ErrOriginDown = errors.New("cdn: origin down")

// OriginConfig configures an Origin.
type OriginConfig struct {
	// Site is the datacenter this origin runs in.
	Site geo.Datacenter
	// ChunkDuration for HLS assembly; zero means the 3 s default.
	ChunkDuration time.Duration
	// RTMP configures the ingest/fan-out server. Tap, ResumeSeq and
	// Pending belong to the origin, which installs its own over any set
	// here; OnEnd is chained: the origin ends the broadcast, then forwards
	// to any set here.
	RTMP rtmp.ServerConfig
	// Clock is the time source for chunk-ready and broadcast-end stamps;
	// nil means the real clock. It is also handed to the embedded RTMP
	// server (unless RTMP.Clock is set explicitly) so the whole ingest
	// path shares one time base.
	Clock clock.Clock
	// Metrics is the registry the origin's instruments register in,
	// labelled by site, and is forwarded to the embedded RTMP server
	// (unless RTMP.Metrics is set explicitly); nil means a private
	// registry.
	Metrics *metrics.Registry
	// Journal, when set, is the write-ahead log backing crash recovery:
	// broadcast creates, chunk seals, and broadcast ends are appended
	// through a group-commit writer, and NewOrigin replays whatever the
	// backend already holds — so constructing an origin over a non-empty
	// journal is the restart path. Nil disables journaling (no recovery,
	// zero overhead).
	Journal journal.Backend
}

// originMetrics instrument chunk assembly: every closed chunk counts once
// and observes its content duration into the chunking histogram — the
// paper's "chunking" delay component (a frame waits up to one chunk
// duration, 3 s nominal, before it can appear in any chunklist).
type originMetrics struct {
	chunks   *metrics.Counter
	chunking *metrics.Histogram
}

func newOriginMetrics(reg *metrics.Registry, site string) *originMetrics {
	l := metrics.L("site", site)
	return &originMetrics{
		chunks:   reg.Counter("cdn_origin_chunks_total", l),
		chunking: reg.Histogram(metrics.DelayChunking, metrics.DelayBuckets, l),
	}
}

// Origin is the Wowza analog: RTMP ingest plus authoritative chunk store.
type Origin struct {
	cfg OriginConfig
	m   *originMetrics

	// crashed marks a killed origin: serving methods answer ErrOriginDown,
	// and the RTMP tap/end closures become no-ops so handler goroutines
	// unwinding during the crash cannot mutate (or journal) anything.
	crashed atomic.Bool

	mu   sync.Mutex
	rtmp *rtmp.Server
	jw   *journal.Writer
	// streams is the one record per broadcast; Remove is the only way one
	// is forgotten (Crash drops them all, replay rebuilds them).
	streams map[string]*originStream
	// edges is process wiring, not state: it survives a crash. It is copied
	// on write, so a publisher takes the slice under the lock it already
	// holds and notifies from it after releasing it.
	edges []*Edge

	// perChunk is how many frames make a chunk (OriginConfig.ChunkDuration).
	perChunk int
	// chunkSlab and frameSlab are the uncarved rest of the slabs (slabSize)
	// the origin takes sealed chunks, with their lists, and their frames
	// from.
	chunkSlab []sealedChunk
	frameSlab []media.Frame
}

type originStream struct {
	// list is the current published chunklist. Published lists are
	// immutable (readers hold the pointer without the lock), so an update
	// replaces it with a successor instead of editing it. The first is
	// list0, version 0 with no chunks, carved with the record.
	list  *media.ChunkList
	list0 media.ChunkList
	// chunks holds the chunks inside the retention window.
	chunks chunkWindow
	// frames is the chunk being assembled, carved whole from the origin's
	// frame slab on its first frame; nil between chunks. nextSeq is the
	// sequence it will be sealed under.
	frames  []media.Frame
	nextSeq uint64
	// resumeFloor is the first frame sequence not covered by replayed
	// chunks — set only by journal recovery. A reconnecting publisher is
	// asked to resume here, and any frame below it is already inside a
	// sealed chunk, so ingest drops it rather than re-chunk it.
	resumeFloor uint64
	// pending marks a broadcast rehydrated from the journal whose publisher
	// has not reconnected yet; viewers dialing it get the retryable
	// StatusUnavailable instead of the terminal not-found.
	pending bool
}

// retainedChunks is how many trailing chunks of a broadcast the origin and
// every edge keep: the ones a playlist can still name plus one more window of
// grace for a viewer acting on a list it fetched a moment ago. Older chunks
// answer hls.ErrNotFound, as a rolled-out segment does on a real CDN (§4.3).
const retainedChunks = 2 * media.WindowSize

// storedChunk is one chunk held by an origin or an edge, its sequence, and
// when it became available there — timestamp ⑦ at the origin, ⑪ at an edge —
// which measurement taps consume.
type storedChunk struct {
	seq   uint64
	chunk *media.Chunk
	at    time.Time
}

// chunkWindow is one broadcast's retained chunks: a fixed ring of
// retainedChunks slots, sequence seq in slot seq mod retainedChunks, held by
// value in the origin's and the edge's record of the broadcast. newest is the
// highest sequence stored; a sequence at or below newest − retainedChunks is
// out of the window. A lookup finds a chunk only in the window and only under
// its own sequence, so a slot still holding an older chunk answers nothing
// for it.
type chunkWindow struct {
	slots  [retainedChunks]storedChunk
	newest uint64
}

// expired reports whether seq has left the window.
func (w *chunkWindow) expired(seq uint64) bool {
	return w.newest >= retainedChunks && seq <= w.newest-retainedChunks
}

// put stores c under seq with its stamp. A seq already out of the window is
// not stored: its slot belongs to a chunk of seq + k·retainedChunks, which may
// be live.
func (w *chunkWindow) put(seq uint64, c *media.Chunk, at time.Time) {
	w.newest = max(w.newest, seq)
	if !w.expired(seq) {
		w.slots[seq%retainedChunks] = storedChunk{seq: seq, chunk: c, at: at}
	}
}

// get returns the chunk stored under seq, if it is in the window.
func (w *chunkWindow) get(seq uint64) (storedChunk, bool) {
	s := w.slots[seq%retainedChunks]
	if s.chunk == nil || s.seq != seq || w.expired(seq) {
		return storedChunk{}, false
	}
	return s, true
}

// slabSize is the fewest frames a frame slab holds. A frame slab holds whole
// chunks' frames, max(slabSize, perChunk) of them, and a chunk slab as many
// chunks (chunksPerSlab): a one-frame chunk is 1/64 of each, a 75-frame chunk
// gets a frame array and a Chunk of its own. Chunk slabs follow the frame
// slabs because a chunk holds its frames and they hold what they view: with
// 64 three-second chunks to a slab, one live chunk would keep up to 63
// expired ones' frames and payloads alive. A slab is garbage once everything
// carved from it is: its chunks have left every origin window and edge
// cache, and the lists sealed with them every reader.
const slabSize = 64

func (o *Origin) chunksPerSlab() int { return max(slabSize, o.perChunk) / o.perChunk }

// sealedChunk is one element of a chunk slab: a sealed chunk and the list
// its seal publishes, the first to name it, carved together. The list is
// superseded one chunk later and kept, never written again, as long as the
// chunk is (DESIGN.md §5a).
type sealedChunk struct {
	chunk media.Chunk
	list  publishedList
}

// carveChunkLocked takes the next sealedChunk from the origin's chunk slab.
//
//livesim:hotpath TestIngestAllocBudget
func (o *Origin) carveChunkLocked() *sealedChunk {
	if len(o.chunkSlab) == 0 {
		//lint:allow hotpathescape slab refill only: one allocation per chunksPerSlab chunks
		o.chunkSlab = make([]sealedChunk, o.chunksPerSlab())
	}
	c := &o.chunkSlab[0]
	o.chunkSlab = o.chunkSlab[1:]
	return c
}

// carveFramesLocked takes a whole chunk's frames from the origin's frame
// slab, returned empty with that capacity.
//
//livesim:hotpath TestIngestAllocBudget
func (o *Origin) carveFramesLocked() []media.Frame {
	if len(o.frameSlab) == 0 {
		//lint:allow hotpathescape slab refill only: one allocation per chunksPerSlab chunks
		o.frameSlab = make([]media.Frame, o.chunksPerSlab()*o.perChunk)
	}
	f := o.frameSlab[:0:o.perChunk]
	o.frameSlab = o.frameSlab[o.perChunk:]
	return f
}

// addFrameLocked appends f to the stream's chunk in assembly — the
// Wowza-side step that creates HLS chunking delay (⑦−⑥ in Fig. 10) — and
// returns the chunk's record when f fills it, else nil.
func (o *Origin) addFrameLocked(st *originStream, f media.Frame) *sealedChunk {
	if st.frames == nil {
		st.frames = o.carveFramesLocked()
	}
	st.frames = append(st.frames, f)
	if len(st.frames) < o.perChunk {
		return nil
	}
	return o.closeChunkLocked(st)
}

// closeChunkLocked returns the record of the stream's chunk in assembly,
// however many frames it has, and starts the next. Nil when it has none (an
// end of broadcast right after a seal).
func (o *Origin) closeChunkLocked(st *originStream) *sealedChunk {
	if len(st.frames) == 0 {
		return nil
	}
	r := o.carveChunkLocked()
	r.chunk.Seq, r.chunk.Frames = st.nextSeq, st.frames
	st.nextSeq++
	st.frames = nil
	return r
}

// addChunkLocked makes a chunk servable: store it with its ready stamp in the
// retention window and publish the successor list naming it, built in next.
// Ingest and end-of-broadcast flush pass the chunk's own record's list;
// journal replay, whose chunk has no record, passes nil. All three go through
// here.
func (o *Origin) addChunkLocked(st *originStream, c *media.Chunk, next *publishedList, at time.Time) {
	st.chunks.put(c.Seq, c, at)
	st.list = o.successorLocked(st, next, &media.ChunkRef{Seq: c.Seq, Duration: c.Duration()})
}

// endLocked publishes the successor list carrying the end marker, the one
// place a broadcast's end is kept. An ended broadcast awaits no publisher.
func (o *Origin) endLocked(st *originStream) {
	next := o.successorLocked(st, nil, nil)
	next.Ended = true
	st.list = next
	st.pending = false
}

// publishedList is a chunklist and the backing array of its chunk window,
// carved together: the list's Chunks slices refs, so the list pointer the
// origin hands out keeps both alive. A seal's list is carved with its chunk
// (sealedChunk), so publishing it allocates nothing of its own.
type publishedList struct {
	list media.ChunkList
	refs [media.WindowSize]media.ChunkRef
}

// successorLocked builds, in p, the list one version after the published
// one, its window copied into p's own refs and, when add is set, slid to end
// with add. A nil p is a list with no chunk record to ride with: the end
// marker's, or a replayed seal's. The caller may still set Ended before
// assigning it to st.list; the old list is never written.
//
//livesim:hotpath TestIngestAllocBudget
func (o *Origin) successorLocked(st *originStream, p *publishedList, add *media.ChunkRef) *media.ChunkList {
	if p == nil {
		//lint:allow hotpathescape end marker and journal replay only: a seal's list comes carved with its chunk
		p = new(publishedList)
	}
	old := st.list
	p.list.BroadcastID = old.BroadcastID
	p.list.Version = old.Version + 1
	p.list.Ended = old.Ended
	keep := old.Chunks
	if add != nil {
		keep = keep[max(0, len(keep)-(media.WindowSize-1)):]
	}
	n := copy(p.refs[:], keep)
	if add != nil {
		p.refs[n] = *add
		n++
	}
	p.list.Chunks = p.refs[:n:n]
	return &p.list
}

// NewOrigin builds an Origin and its embedded RTMP server. When the config
// carries a journal backend, whatever it already holds is replayed first —
// so pointing a fresh Origin at a crashed one's journal is the restart path.
func NewOrigin(cfg OriginConfig) *Origin {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.ChunkDuration == 0 {
		cfg.ChunkDuration = media.DefaultChunkDuration
	}
	o := &Origin{
		cfg:      cfg,
		m:        newOriginMetrics(cfg.Metrics, cfg.Site.ID),
		streams:  make(map[string]*originStream),
		perChunk: media.FramesPerChunk(cfg.ChunkDuration),
	}
	o.mu.Lock()
	o.openJournalLocked()
	o.rtmp = o.newRTMPServer()
	o.mu.Unlock()
	return o
}

// newRTMPServer builds the embedded ingest server with the origin's tap,
// resume and pending hooks, and its end hook chained in front of any
// configured one. Called at construction and again on Recover — an aborted
// rtmp.Server cannot be restarted, a crashed process's sockets are gone.
func (o *Origin) newRTMPServer() *rtmp.Server {
	userEnd := o.cfg.RTMP.OnEnd
	rc := o.cfg.RTMP
	if rc.Clock == nil {
		rc.Clock = o.cfg.Clock
	}
	if rc.Metrics == nil {
		rc.Metrics = o.cfg.Metrics
		rc.MetricsLabels = []metrics.Label{metrics.L("site", o.cfg.Site.ID)}
	}
	rc.Tap = func(id string, f media.Frame, at time.Time) {
		if !o.crashed.Load() {
			o.Ingest(id, f, at)
		}
	}
	rc.OnEnd = func(id string) {
		if o.crashed.Load() {
			// A crash is not an end of broadcast: the control plane must
			// keep the record live so the publisher can resume after
			// recovery.
			return
		}
		o.endBroadcast(id)
		if userEnd != nil {
			userEnd(id)
		}
	}
	rc.ResumeSeq = o.resumeSeqFor
	rc.Pending = o.pendingBroadcast
	return rtmp.NewServer(rc)
}

// openJournalLocked replays the configured journal backend into the stream
// table and starts its writer (journal.Open). No-op without a backend; an
// unreadable one leaves the origin empty and unjournaled.
func (o *Origin) openJournalLocked() {
	if o.cfg.Journal == nil {
		return
	}
	o.jw = journal.Open(o.cfg.Journal, o.applyRecordLocked, journal.WriterConfig{
		Metrics: o.cfg.Metrics,
		Labels:  []metrics.Label{metrics.L("site", o.cfg.Site.ID)},
	})
}

// applyRecordLocked rehydrates one journal record into its broadcast's
// record, which a create or seal starts if replay has not met it yet.
func (o *Origin) applyRecordLocked(r journal.Record) {
	id := r.BroadcastID
	st, ok := o.streams[id]
	if !ok && (r.Type == journal.RecordCreate || r.Type == journal.RecordSeal) {
		st, ok = o.newStreamLocked(id, true), true
		o.streams[id] = st
	}
	if !ok {
		return
	}
	switch r.Type {
	case journal.RecordSeal:
		// The record's payload is its own copy (journal.DecodeRecord), so
		// the decoded chunk keeps it as its sealed form.
		chunk, err := media.SealedChunk(r.Payload)
		if err != nil {
			// A CRC-valid record with an undecodable payload is a writer
			// bug, not tail damage; skip it rather than abort recovery.
			return
		}
		o.addChunkLocked(st, chunk, nil, o.cfg.Clock.Now())
		st.nextSeq = max(st.nextSeq, chunk.Seq+1)
		if n := len(chunk.Frames); n > 0 {
			st.resumeFloor = chunk.Frames[n-1].Seq + 1
		}
	case journal.RecordEnd:
		o.endLocked(st)
	case journal.RecordRemove:
		delete(o.streams, id)
	}
}

// newStreamLocked starts a broadcast's record, one allocation with its
// version-0 list. Replay starts it pending: the broadcast waits for its
// publisher to reconnect. Records are not recycled: a reader may still hold
// a removed broadcast's version-0 list, which must never be rewritten.
func (o *Origin) newStreamLocked(id string, pending bool) *originStream {
	st := &originStream{pending: pending}
	st.list0.BroadcastID = id
	st.list = &st.list0
	return st
}

// resumeSeqFor answers the embedded RTMP server's resume query for a
// reconnecting broadcaster: the first frame sequence past everything the
// journal preserved. It also clears the pending flag — the publisher is
// back.
func (o *Origin) resumeSeqFor(id string) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	st, ok := o.streams[id]
	if !ok {
		return 0
	}
	st.pending = false
	return st.resumeFloor
}

// pendingBroadcast reports whether id was rehydrated from the journal and is
// still waiting for its publisher.
func (o *Origin) pendingBroadcast(id string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	st, ok := o.streams[id]
	return ok && st.pending
}

// RTMP exposes the embedded ingest/fan-out server (the current one — a
// recovered origin builds a fresh server, old handles are dead).
func (o *Origin) RTMP() *rtmp.Server {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rtmp
}

// Crash simulates the origin process dying: the RTMP server is aborted (no
// clean end-of-broadcast reaches anyone), the journal writer is drained and
// closed (everything acknowledged before the crash is durable — the fsync
// already happened), and every broadcast record is dropped. The edge
// registrations are process wiring, not state, and survive. The Origin object
// itself survives, answering ErrOriginDown, until Recover.
func (o *Origin) Crash() {
	if !o.crashed.CompareAndSwap(false, true) {
		return
	}
	o.mu.Lock()
	srv := o.rtmp
	jw := o.jw
	o.jw = nil
	o.mu.Unlock()
	srv.Abort()
	if jw != nil {
		jw.Close()
	}
	o.mu.Lock()
	o.streams = make(map[string]*originStream)
	o.mu.Unlock()
}

// Killed reports whether the origin is crashed.
func (o *Origin) Killed() bool { return o.crashed.Load() }

// Close shuts down the origin gracefully: the RTMP server ends every
// broadcast cleanly and the journal writer drains. The inverse of Crash.
func (o *Origin) Close() error {
	o.mu.Lock()
	srv := o.rtmp
	jw := o.jw
	o.jw = nil
	o.mu.Unlock()
	err := srv.Close()
	if jw != nil {
		jw.Close()
	}
	return err
}

// Recover restarts a crashed origin: journal replay rebuilds every live
// broadcast and its sealed chunks, a fresh RTMP server is constructed (the
// caller re-listens), and the origin serves again to the edges it had.
// No-op on a healthy origin.
func (o *Origin) Recover() {
	if !o.crashed.Load() {
		return
	}
	o.mu.Lock()
	o.openJournalLocked()
	o.rtmp = o.newRTMPServer()
	o.mu.Unlock()
	o.crashed.Store(false)
}

// Site returns the origin's datacenter.
func (o *Origin) Site() geo.Datacenter { return o.cfg.Site }

// RegisterEdge subscribes an edge to chunklist expiry notifications.
func (o *Origin) RegisterEdge(e *Edge) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.edges = append(o.edges[:len(o.edges):len(o.edges)], e)
}

// Ingest adds one frame to its broadcast's chunk in assembly. Production
// traffic arrives through the RTMP tap; the benchmark harness calls it
// directly, bypassing the listener, to isolate viewer-serving cost. With a
// journal, a completed chunk is sealed here, before it is published (its
// first Chunk.Wire) — the journal needs its bytes anyway, and that marshal is
// the only one the chunk ever gets; without one, nothing on this path builds
// bytes (the first serve does, if there ever is one, and the seal drops the
// frames' views of the ingest buffers then).
// Journal appends happen after the lock is released — they copy the record
// into the group-commit writer's pending batch, the one copy the sealed bytes
// get on the way to the backend — and per-broadcast ordering holds because one
// handler goroutine serves each broadcast. Frames for an ended broadcast are
// dropped: its list, end marker included, never changes again.
func (o *Origin) Ingest(id string, f media.Frame, at time.Time) {
	o.mu.Lock()
	st, ok := o.streams[id]
	created := false
	if !ok {
		st = o.newStreamLocked(id, false)
		o.streams[id] = st
		created = true
	}
	if f.Seq < st.resumeFloor || st.list.Ended {
		// A resuming publisher replays from the journal floor; anything
		// below it is already inside a sealed, durable chunk. An ended
		// broadcast takes no more chunks, so no seal follows its end.
		o.mu.Unlock()
		return
	}
	var chunk *media.Chunk
	rec := o.addFrameLocked(st, f)
	jw, edges := o.jw, o.edges
	var version uint64
	if rec != nil {
		chunk = &rec.chunk
		if jw != nil {
			chunk.Wire()
		}
		o.addChunkLocked(st, chunk, &rec.list, at)
		version = st.list.Version
	}
	o.mu.Unlock()
	if jw != nil {
		if created {
			journalAppend(jw, journal.Record{Type: journal.RecordCreate, BroadcastID: id})
		}
		if chunk != nil {
			journalAppend(jw, journal.Record{Type: journal.RecordSeal, BroadcastID: id, Payload: chunk.Wire()})
		}
	}
	if chunk != nil {
		o.m.chunks.Inc()
		o.m.chunking.Observe(chunk.Duration())
		notify(edges, id, version)
	}
}

// journalAppend hands r to the group-commit writer. Append fails only with
// journal.ErrClosed, when the origin crashed after taking jw: the record is
// dropped as the crash drops everything not yet appended.
func journalAppend(jw *journal.Writer, r journal.Record) {
	_ = jw.Append(r)
}

// endBroadcast flushes the chunk in assembly and publishes the end marker.
// A broadcast already ended is left as it is.
func (o *Origin) endBroadcast(id string) {
	o.mu.Lock()
	st, ok := o.streams[id]
	if !ok || st.list.Ended {
		o.mu.Unlock()
		return
	}
	jw, edges := o.jw, o.edges
	var flushedChunk *media.Chunk
	if rec := o.closeChunkLocked(st); rec != nil {
		flushedChunk = &rec.chunk
		if jw != nil {
			flushedChunk.Wire()
		}
		o.addChunkLocked(st, flushedChunk, &rec.list, o.cfg.Clock.Now())
	}
	o.endLocked(st)
	version := st.list.Version
	o.mu.Unlock()
	if jw != nil {
		if flushedChunk != nil {
			journalAppend(jw, journal.Record{Type: journal.RecordSeal, BroadcastID: id, Payload: flushedChunk.Wire()})
		}
		journalAppend(jw, journal.Record{Type: journal.RecordEnd, BroadcastID: id})
	}
	if flushedChunk != nil {
		o.m.chunks.Inc()
		o.m.chunking.Observe(flushedChunk.Duration())
	}
	notify(edges, id, version)
}

// notify tells every registered edge that id's list is now at version. edges
// is the origin's copy-on-write slice, taken under its lock.
func notify(edges []*Edge, id string, version uint64) {
	for _, e := range edges {
		e.invalidate(id, version)
	}
}

// ChunkList implements hls.Store. The returned list is the published one,
// shared and immutable. A cancelled context is honored before the lock is
// taken, so callers abandoning a pull never queue on a contended origin.
func (o *Origin) ChunkList(ctx context.Context, id string) (*media.ChunkList, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if o.crashed.Load() {
		return nil, ErrOriginDown
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	st, ok := o.streams[id]
	if !ok {
		return nil, hls.ErrNotFound
	}
	return st.list, nil
}

// Chunk implements hls.Store. Like ChunkList, it honors cancellation before
// lock acquisition and answers ErrOriginDown while crashed.
func (o *Origin) Chunk(ctx context.Context, id string, seq uint64) (*media.Chunk, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if o.crashed.Load() {
		return nil, ErrOriginDown
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	st, ok := o.streams[id]
	if !ok {
		return nil, hls.ErrNotFound
	}
	c, ok := st.chunks.get(seq)
	if !ok {
		return nil, hls.ErrNotFound
	}
	return c.chunk, nil
}

// ChunkReadyAt returns when chunk seq became available at the origin
// (timestamp ⑦), for delay measurement.
func (o *Origin) ChunkReadyAt(id string, seq uint64) (time.Time, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	st, ok := o.streams[id]
	if !ok {
		return time.Time{}, false
	}
	c, ok := st.chunks.get(seq)
	return c.at, ok
}

// Remove forgets a broadcast: its record is the origin's whole state for it.
// The platform janitor (core.Platform.SweepEnded) calls it once the
// broadcast's retention has passed. The removal is journaled, so a recovered
// origin does not bring back a broadcast whose end the janitor has already
// forgotten, to serve and hold it for good.
func (o *Origin) Remove(id string) {
	o.mu.Lock()
	_, ok := o.streams[id]
	delete(o.streams, id)
	jw := o.jw
	o.mu.Unlock()
	if ok && jw != nil {
		journalAppend(jw, journal.Record{Type: journal.RecordRemove, BroadcastID: id})
	}
}

// Live reports the number of active (not yet ended) broadcasts with chunks.
func (o *Origin) Live() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, st := range o.streams {
		if !st.list.Ended {
			n++
		}
	}
	return n
}
