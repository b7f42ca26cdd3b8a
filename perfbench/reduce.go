package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"datalinks/internal/obs"
)

// minTail is how many samples must lie beyond a percentile for it to be
// reported: a p99 over fewer than 1000 samples would be the maximum of a
// handful, not a percentile.
const minTail = 10

// percentile returns the nearest-rank q-quantile of samples (which it sorts in
// place) and whether at least minTail samples lie beyond it.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return samples[rank-1], n-rank >= minTail
}

// span is one node of a completed trace, rebuilt from the tracer's JSON
// rendering (the only form that carries each span's start time).
type span struct {
	name     string
	start    time.Time
	dur      time.Duration
	children []*span
}

func spanFromJSON(j obs.SpanJSON) (*span, error) {
	start, err := time.Parse(time.RFC3339Nano, j.Start)
	if err != nil {
		return nil, fmt.Errorf("span %s: %w", j.Name, err)
	}
	s := &span{name: j.Name, start: start, dur: time.Duration(j.DurationMS * 1e6)}
	for _, c := range j.Children {
		child, err := spanFromJSON(c)
		if err != nil {
			return nil, err
		}
		s.children = append(s.children, child)
	}
	return s, nil
}

// selfTime is the span's duration minus the part of its interval that its
// children cover. Children may overlap each other and may outlive the parent
// (the asynchronous archive job outlives the dlfm span that starts it), so
// the children's intervals are clipped to the parent's and merged first.
func selfTime(s *span) time.Duration {
	lo, hi := s.start, s.start.Add(s.dur)
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range s.children {
		a, b := c.start, c.start.Add(c.dur)
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			covered += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.dur - covered
}

// walk visits s and every descendant.
func walk(s *span, fn func(*span)) {
	fn(s)
	for _, c := range s.children {
		walk(c, fn)
	}
}

// perUnit is a run delta divided by the number of units (updates or
// operations) the run acknowledged. Counters are cumulative over the process,
// so a ratio of totals would charge the set-up and warm-up work to the run.
func perUnit(before, after int64, units int) (float64, bool) {
	if units <= 0 {
		return 0, false
	}
	return float64(after-before) / float64(units), true
}
