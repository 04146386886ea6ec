package metrics

import (
	"sort"
	"strconv"
	"time"
)

// CounterValue is one counter series in a Snapshot.
type CounterValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// GaugeValue is one gauge series in a Snapshot.
type GaugeValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// Bucket is one cumulative histogram bucket rendered for exposition.
type Bucket struct {
	// LE is the inclusive upper bound in seconds ("+Inf" for the overflow
	// bucket), mirroring the conventional cumulative-histogram encoding.
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// HistogramValue is one histogram series in a Snapshot.
type HistogramValue struct {
	Name        string            `json:"name"`
	Labels      map[string]string `json:"labels,omitempty"`
	Count       int64             `json:"count"`
	SumSeconds  float64           `json:"sum_seconds"`
	MeanSeconds float64           `json:"mean_seconds"`
	Buckets     []Bucket          `json:"buckets"`
}

// Snapshot is a point-in-time view of every instrument in a Registry,
// shaped for JSON exposition and for test assertions.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot reads every instrument. The registry lock is held only to copy
// the instrument list; values (including GaugeFunc closures, which may take
// component locks of their own) are read outside it, so no lock ordering is
// imposed on callers. Output is sorted by name then labels, so repeated
// snapshots of a quiet registry are byte-identical.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	ins := make([]*instrument, len(r.order))
	copy(ins, r.order)
	// A slice header copied under the lock stays valid: GaugeFunc only
	// appends.
	fns := make(map[*instrument][]func() int64)
	for _, in := range ins {
		if len(in.gaugeFns) > 0 {
			fns[in] = in.gaugeFns
		}
	}
	r.mu.Unlock()

	var s Snapshot
	for _, in := range ins {
		lm := labelMap(in.labels)
		switch in.kind {
		case kindCounter:
			s.Counters = append(s.Counters, CounterValue{Name: in.name, Labels: lm, Value: in.counter.Value()})
		case kindGauge:
			var v int64
			if fs, ok := fns[in]; ok {
				for _, fn := range fs {
					v += fn()
				}
			} else {
				v = in.gauge.Value()
			}
			s.Gauges = append(s.Gauges, GaugeValue{Name: in.name, Labels: lm, Value: v})
		case kindHistogram:
			d := in.hist.Data()
			hv := HistogramValue{
				Name:       in.name,
				Labels:     lm,
				Count:      d.Count,
				SumSeconds: d.Sum.Seconds(),
				Buckets:    make([]Bucket, len(d.Buckets)),
			}
			if d.Count > 0 {
				hv.MeanSeconds = (d.Sum / time.Duration(d.Count)).Seconds()
			}
			for i, b := range d.Buckets {
				le := "+Inf"
				if b.Bound >= 0 {
					le = formatSeconds(b.Bound)
				}
				hv.Buckets[i] = Bucket{LE: le, Count: b.Count}
			}
			s.Histograms = append(s.Histograms, hv)
		}
	}
	sort.Slice(s.Counters, func(i, j int) bool {
		return seriesKey(s.Counters[i].Name, s.Counters[i].Labels) < seriesKey(s.Counters[j].Name, s.Counters[j].Labels)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		return seriesKey(s.Gauges[i].Name, s.Gauges[i].Labels) < seriesKey(s.Gauges[j].Name, s.Gauges[j].Labels)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		return seriesKey(s.Histograms[i].Name, s.Histograms[i].Labels) < seriesKey(s.Histograms[j].Name, s.Histograms[j].Labels)
	})
	return s
}

func labelMap(ls []Label) map[string]string {
	if len(ls) == 0 {
		return nil
	}
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Key] = l.Value
	}
	return m
}

// seriesKey renders a stable sort key; labels arrive pre-sorted by key at
// registration, but map iteration is not ordered, so re-sort here.
func seriesKey(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := name
	for _, k := range keys {
		s += "{" + k + "=" + labels[k] + "}"
	}
	return s
}

// SeriesName renders name{k=v,...} with labels sorted by key — the flat
// identifier used by the /debug/vars view and log lines.
func SeriesName(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := name + "{"
	for i, k := range keys {
		if i > 0 {
			s += ","
		}
		s += k + "=" + labels[k]
	}
	return s + "}"
}

func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}
