package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sync"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest rank of quantile q among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{0.9999, 0.999, 0.99, 0.9}

// tailStat is a tail latency: the highest ladder percentile that still
// has at least 10 samples beyond it.
type tailStat struct {
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
	ValueMs    float64 `json:"value_ms"`
}

// tail returns the tail statistic of xs (ms). With fewer than 100
// samples no ladder percentile qualifies and the median is reported.
func tail(xs []float64) tailStat {
	t := tailStat{Percentile: 50, Samples: len(xs)}
	for _, q := range tailLadder {
		if beyond := len(xs) - rank(len(xs), q); beyond >= 10 {
			t.Percentile, t.Beyond = q*100, beyond
			t.ValueMs = quantile(xs, q)
			return t
		}
	}
	t.Beyond = len(xs) - rank(len(xs), 0.5)
	t.ValueMs = median(xs)
	return t
}

// span is one timed call recorded by the traced run. Spans of one
// request or ladder query share Trace; Parent is 0 for roots.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the traced run's spans in memory until the run ends. A
// nil *spanLog records nothing, so untraced runs pay one nil check.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// record appends a span and returns its ID (0 on a nil log).
func (l *spanLog) record(trace, parent uint64, name string, start, end time.Time) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	id := uint64(len(l.spans) + 1)
	l.spans = append(l.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch))})
	l.mu.Unlock()
	return id
}

// end sets the end time of a span recorded before its children.
func (l *spanLog) end(id uint64, t time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].End = int64(t.Sub(l.epoch))
	l.mu.Unlock()
}

// selfTimes returns, per span name, the durations (µs) of its spans
// minus the part of each span's interval its children cover.
func (l *spanLog) selfTimes() map[string][]float64 {
	child := make(map[uint64]int64)
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for _, s := range l.spans {
		self := s.End - s.Start - child[s.ID]
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// write saves the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
