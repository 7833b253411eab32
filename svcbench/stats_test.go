package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	// p99 of n samples sits at rank ceil(0.99n); the samples above it
	// must number at least ten.
	for _, c := range []struct {
		n      int
		beyond int
		ok     bool
	}{{100, 1, false}, {1000, 10, true}, {999, 9, false}, {1200, 12, true}} {
		if got := beyond(c.n, 0.99); got != c.beyond {
			t.Errorf("beyond(%d, .99) = %d, want %d", c.n, got, c.beyond)
		}
		_, err := tailQuantile(seq(c.n), 0.99)
		if (err == nil) != c.ok {
			t.Errorf("tailQuantile over %d samples: err=%v, want ok=%v", c.n, err, c.ok)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{20, 0.5}, {100, 0.9}, {300, 0.95}, {1000, 0.99}, {20000, 0.999}, {5, 0}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{16, 1, 8, 2, 4})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %g, %g; want 1.5, 12", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestWindowedMediansIgnoreOneBadWindow(t *testing.T) {
	lat := make([]float64, 5*windowSize)
	for i := range lat {
		lat[i] = 1
	}
	// One stall ruins the tail of one window only.
	for i := 2 * windowSize; i < 2*windowSize+100; i++ {
		lat[i] = 500
	}
	p50, p90, p99, windows, err := windowed(lat)
	if err != nil {
		t.Fatal(err)
	}
	if windows != 5 || p50 != 1 || p90 != 1 || p99 != 1 {
		t.Errorf("windowed = p50 %g p90 %g p99 %g over %d windows; want 1, 1, 1, 5", p50, p90, p99, windows)
	}
	// A slowdown in every window moves the figure.
	for w := 0; w < 5; w++ {
		for i := w * windowSize; i < w*windowSize+100; i++ {
			lat[i] = 500
		}
	}
	if _, _, p99, _, _ = windowed(lat); p99 != 500 {
		t.Errorf("p99 with a stall in every window = %g, want 500", p99)
	}
	if _, _, _, _, err := windowed(lat[:windowSize-1]); err == nil {
		t.Error("a sample smaller than one window was accepted")
	}
}

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []Span{
		{ID: 1, Name: "loopback", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "serve.bounds", Start: 200 * ms, End: 270 * ms},
		{ID: 3, Parent: 2, Name: "core.certifier", Start: 300 * ms, End: 310 * ms},
		{ID: 4, Parent: 2, Name: "store.put", Start: 320 * ms, End: 340 * ms},
	}
	for _, c := range []struct {
		id   int
		want time.Duration
	}{{1, 30 * time.Millisecond}, {2, 40 * time.Millisecond}, {3, 10 * time.Millisecond}} {
		if got := selfTime(spans[c.id-1], spans); got != c.want {
			t.Errorf("selfTime(%s) = %v, want %v", spans[c.id-1].Name, got, c.want)
		}
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := NewTracer()
	t0 := time.Now()
	root := tr.Record("loopback", "r1", 0, t0, t0.Add(time.Millisecond))
	child := tr.Record("serve.bounds", "r1", root, t0, t0.Add(time.Microsecond))
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].ID != child || spans[1].Parent != root || spans[1].Req != "r1" {
		t.Fatalf("spans = %+v", spans)
	}
	var none *Tracer
	if id := none.Record("x", "r", 0, t0, t0); id != 0 {
		t.Error("a nil tracer recorded a span")
	}
}
