// Package netsim models wide-area network latency for the reproduction. The
// paper measured a planet-scale deployment; we replace the physical WAN with
// a distance-based delay model: great-circle propagation at fiber speed with
// route inflation, lognormal queueing jitter, bandwidth-dependent
// serialization, and a last-mile access profile (§4.3's "stable WiFi" setup).
//
// All randomness comes from an explicit rng.Source, so delays are
// reproducible under a seed in virtual-time experiments. In real-socket mode
// the same model produces the sleep durations injected on loopback.
package netsim

import (
	"time"

	"repro/internal/geo"
	"repro/internal/rng"
)

// Params configures the WAN model. NewModel applies defaults for zero fields.
type Params struct {
	// FiberKmPerMs is signal speed in fiber (~200 km/ms = 2/3 c).
	FiberKmPerMs float64
	// RouteInflation scales great-circle distance to realistic routed
	// path length (typically 1.5–2.0 on the public Internet).
	RouteInflation float64
	// JitterSigma is the sigma of the lognormal multiplicative jitter on
	// one-way delay.
	JitterSigma float64
	// ProcessingDelay is fixed per-hop server processing time.
	ProcessingDelay time.Duration
	// BackboneBytesPerSec is the inter-datacenter transfer bandwidth.
	BackboneBytesPerSec float64
}

// DefaultParams returns the calibrated model used by the experiments.
func DefaultParams() Params {
	return Params{
		FiberKmPerMs:        200,
		RouteInflation:      1.7,
		JitterSigma:         0.25,
		ProcessingDelay:     2 * time.Millisecond,
		BackboneBytesPerSec: 50e6, // 400 Mbit/s effective DC-to-DC
	}
}

// Model produces WAN delays. Not safe for concurrent use; Split the
// underlying source per goroutine.
type Model struct {
	p   Params
	src *rng.Source
}

// NewModel builds a Model, filling zero Params fields with defaults.
func NewModel(p Params, src *rng.Source) *Model {
	d := DefaultParams()
	if p.FiberKmPerMs == 0 {
		p.FiberKmPerMs = d.FiberKmPerMs
	}
	if p.RouteInflation == 0 {
		p.RouteInflation = d.RouteInflation
	}
	if p.JitterSigma == 0 {
		p.JitterSigma = d.JitterSigma
	}
	if p.ProcessingDelay == 0 {
		p.ProcessingDelay = d.ProcessingDelay
	}
	if p.BackboneBytesPerSec == 0 {
		p.BackboneBytesPerSec = d.BackboneBytesPerSec
	}
	return &Model{p: p, src: src}
}

// Propagation returns the deterministic one-way propagation delay between
// two locations (no jitter): routed distance over fiber speed plus
// processing.
func (m *Model) Propagation(a, b geo.Location) time.Duration {
	km := geo.DistanceKm(a, b) * m.p.RouteInflation
	ms := km / m.p.FiberKmPerMs
	return time.Duration(ms*float64(time.Millisecond)) + m.p.ProcessingDelay
}

// OneWay returns a jittered one-way delay between two locations.
func (m *Model) OneWay(a, b geo.Location) time.Duration {
	return m.Jitter(m.Propagation(a, b))
}

// Jitter returns one jittered draw of a one-way delay whose propagation is
// base: OneWay(a, b) is Jitter(Propagation(a, b)), so a caller that crosses
// one path many times computes the distance once.
func (m *Model) Jitter(base time.Duration) time.Duration {
	mult := m.src.LogNormal(0, m.p.JitterSigma)
	return time.Duration(float64(base) * mult)
}

// RTT returns a jittered round-trip time.
func (m *Model) RTT(a, b geo.Location) time.Duration {
	return m.OneWay(a, b) + m.OneWay(b, a)
}

// Transfer returns the time to move size bytes from a to b over the
// backbone: one jittered one-way delay plus serialization at backbone
// bandwidth. Callers add handshake RTTs explicitly where protocols need
// them.
func (m *Model) Transfer(a, b geo.Location, size int) time.Duration {
	ser := time.Duration(float64(size) / m.p.BackboneBytesPerSec * float64(time.Second))
	return m.OneWay(a, b) + ser
}

// AccessProfile models the viewer or broadcaster last-mile link.
type AccessProfile struct {
	Name string
	// Base is the median one-way last-mile latency.
	Base time.Duration
	// JitterSigma is lognormal sigma on the base.
	JitterSigma float64
	// LossBurstProb is the chance a given packet hits a delay burst
	// (retransmission / deep queue), adding BurstPenalty.
	LossBurstProb float64
	BurstPenalty  time.Duration
	// BytesPerSec is last-mile bandwidth.
	BytesPerSec float64
}

// WiFi is the stable WiFi link of the paper's lab setup (§4.3).
var WiFi = AccessProfile{
	Name: "wifi", Base: 8 * time.Millisecond, JitterSigma: 0.3,
	LossBurstProb: 0.002, BurstPenalty: 80 * time.Millisecond,
	BytesPerSec: 4e6,
}

// LastMile returns a jittered last-mile delay for a payload of size bytes
// under profile p.
func (m *Model) LastMile(p AccessProfile, size int) time.Duration {
	d := time.Duration(float64(p.Base) * m.src.LogNormal(0, p.JitterSigma))
	if p.BytesPerSec > 0 {
		d += time.Duration(float64(size) / p.BytesPerSec * float64(time.Second))
	}
	if m.src.Bool(p.LossBurstProb) {
		d += time.Duration(float64(p.BurstPenalty) * m.src.LogNormal(0, 0.3))
	}
	return d
}
