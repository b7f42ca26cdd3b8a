package main

import (
	"testing"
	"time"

	"datalinks/internal/obs"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending: percentile must sort
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{n: 20, q: 0.50, want: 10, ok: true},
		{n: 19, q: 0.50, want: 10, ok: false}, // 9 samples above the median
		{n: 100, q: 0.99, want: 99, ok: false},
		{n: 999, q: 0.99, want: 990, ok: false}, // rank 990, 9 beyond
		{n: 1000, q: 0.99, want: 990, ok: true},
		{n: 1, q: 0.50, want: 1, ok: false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

// at builds a span starting off after t0 and lasting dur.
func at(name string, t0 time.Time, off, dur time.Duration, children ...*span) *span {
	return &span{name: name, start: t0.Add(off), dur: dur, children: children}
}

func TestSelfTimeMergesAndClipsChildren(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := time.Millisecond
	for _, c := range []struct {
		name string
		s    *span
		want time.Duration
	}{
		{"no children", at("dlfm", t0, 0, 10*ms), 10 * ms},
		{"disjoint", at("dlfm", t0, 0, 10*ms, at("lock", t0, 1*ms, 1*ms), at("2pc", t0, 4*ms, 3*ms)), 6 * ms},
		{"overlapping", at("dlfm", t0, 0, 10*ms, at("2pc", t0, 2*ms, 3*ms), at("repl.ship", t0, 4*ms, 2*ms)), 6 * ms},
		// The archive job starts inside its dlfm parent and outlives it:
		// only the part inside the parent counts.
		{"async child outlives parent", at("dlfm", t0, 0, 10*ms, at("2pc", t0, 2*ms, 3*ms), at("archive", t0, 8*ms, 22*ms)), 5 * ms},
		{"child before parent", at("dlfm", t0, 5*ms, 10*ms, at("x", t0, 0, 7*ms)), 8 * ms},
		{"child covers parent", at("wire", t0, 0, 10*ms, at("server", t0, 0, 10*ms)), 0},
	} {
		if got := selfTime(c.s); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSpanFromJSONKeepsIntervals records a real trace under a scripted clock
// and checks the rebuilt tree's starts and durations, an open asynchronous
// child included once it ends.
func TestSpanFromJSONKeepsIntervals(t *testing.T) {
	t0 := time.Unix(2000, 0)
	now := t0
	tick := func(d time.Duration) { now = now.Add(d) }
	tr := obs.New(obs.Config{Clock: func() time.Time { return now }})
	trace := tr.Start("commit")
	tick(time.Millisecond)
	d := trace.Root().Child("dlfm")
	tick(2 * time.Millisecond)
	arch := d.Child("archive")
	tick(3 * time.Millisecond)
	d.End()
	trace.Finish()
	tick(10 * time.Millisecond)
	arch.End()

	root, err := spanFromJSON(trace.JSON().Root)
	if err != nil {
		t.Fatal(err)
	}
	if root.dur != 6*time.Millisecond || !root.start.Equal(t0) {
		t.Fatalf("root = %v at %v", root.dur, root.start)
	}
	dl := root.children[0]
	if dl.name != "dlfm" || dl.dur != 5*time.Millisecond || !dl.start.Equal(t0.Add(time.Millisecond)) {
		t.Fatalf("dlfm = %s %v at %v", dl.name, dl.dur, dl.start)
	}
	if a := dl.children[0]; a.dur != 13*time.Millisecond {
		t.Fatalf("archive = %v, want 13ms", a.dur)
	}
	if got := selfTime(dl); got != 2*time.Millisecond {
		t.Fatalf("dlfm self = %v, want 2ms", got)
	}
}

func TestPerUnitUsesRunDelta(t *testing.T) {
	// A counter that stood at 1000 after set-up and 1300 after a run of 100
	// updates costs 3 per update, not 13.
	if got, ok := perUnit(1000, 1300, 100); !ok || got != 3 {
		t.Fatalf("perUnit = %v, %v; want 3, true", got, ok)
	}
	if _, ok := perUnit(0, 5, 0); ok {
		t.Fatal("perUnit over no units reported ok")
	}
}

func TestOpRateIsWindowMedian(t *testing.T) {
	start := time.Unix(3000, 0)
	p := &phase{start: start, elapsed: 10 * time.Second, timed: &tally{}}
	// 100 ops in each one-second window, and a burst of 500 in the last.
	for w := 0; w < 10; w++ {
		n := 100
		if w == 9 {
			n = 600
		}
		for i := 0; i < n; i++ {
			p.timed.done = append(p.timed.done, start.Add(time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond))
		}
	}
	p.timed.updates, p.timed.reads = 150, 1350
	if got := opRate(p); got != 100 {
		t.Fatalf("opRate = %v, want 100", got)
	}
	if got := classRate(p, p.timed.updates); got != 10 {
		t.Fatalf("classRate = %v, want 10", got)
	}
}
