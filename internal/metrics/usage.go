package metrics

// Usage is one tenant's delivery meter: the frames an RTMP origin fanned out,
// the chunks an HLS edge served, and their bytes — the paper's cost axis
// (§4.1, Fig. 14) counted where delivery happens. The control plane owns one
// per tenant and journals its growth; the data plane gets it with a
// broadcast's assignment and only adds. A nil *Usage meters nothing, which is
// what an untenanted broadcast carries.
type Usage struct {
	Frames *Counter
	Chunks *Counter
	Bytes  *Counter
}

// MeterFrames records frames delivered over RTMP fan-out.
//
//livesim:hotpath TestObservationsAllocFree
func (u *Usage) MeterFrames(frames, bytes int64) {
	if u == nil {
		return
	}
	u.Frames.Add(frames)
	u.Bytes.Add(bytes)
}

// MeterChunks records chunks served by an HLS edge.
//
//livesim:hotpath TestObservationsAllocFree
func (u *Usage) MeterChunks(chunks, bytes int64) {
	if u == nil {
		return
	}
	u.Chunks.Add(chunks)
	u.Bytes.Add(bytes)
}
