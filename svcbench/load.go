package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// op is one request of a workload with the check its answer must pass.
type op struct {
	kind   string
	method string
	path   string
	body   []byte
	// check validates a transport-successful answer; nil accepts any 2xx.
	check func(status int, body []byte) error
}

// answer is what the server sent back for one op.
type answer struct {
	status int
	body   []byte
	err    error // transport failure
}

// send sends o on c and notes when the whole answer had arrived; the
// correctness check runs later, outside the timed interval.
func send(c *client, o op) (answer, time.Time) {
	status, body, err := c.do(o.method, o.path, o.body)
	return answer{status: status, body: body, err: err}, time.Now()
}

// verify applies o's check to its answer.
func verify(o op, a answer) error {
	if a.err != nil {
		return fmt.Errorf("%s: %w", o.kind, a.err)
	}
	if o.check != nil {
		if err := o.check(a.status, a.body); err != nil {
			return fmt.Errorf("%s: %w", o.kind, err)
		}
	} else if a.status/100 != 2 {
		return fmt.Errorf("%s: HTTP %d: %.200s", o.kind, a.status, a.body)
	}
	return nil
}

// roundTrip sends o and checks its answer at once.
func roundTrip(c *client, o op) error {
	a, _ := send(c, o)
	return verify(o, a)
}

// loopStats summarises one open-loop phase.
type loopStats struct {
	rate     float64
	lat      []float64 // ms from each op's due time, in op order
	failures []error
	// maxLag is how late the generator itself handed an op to a sender;
	// backlog counts ops already due but not yet sent when the last op
	// fell due.
	maxLag  time.Duration
	backlog int
	span    time.Duration // scheduled length of the phase
	rtt     []float64     // ms from send to answer, in op order
	lags    []float64     // ms from due time to hand-off, in op order
}

// openLoop offers ops at a fixed rate over the given connections,
// regardless of how fast answers come back. Each op is timed from the
// moment it was due, so a stall shows in every op it delays. The
// generator hands every due op to a queue at once; one sender per
// connection drains it. With a tracer, every op leaves a loopback span.
func openLoop(conns []*client, rate float64, ops []op, tr *Tracer, phase string) loopStats {
	n := len(ops)
	st := loopStats{rate: rate, lat: make([]float64, n), rtt: make([]float64, n), lags: make([]float64, n), span: time.Duration(float64(n) / rate * float64(time.Second))}
	start := time.Now().Add(time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * float64(time.Second))) }
	queue := make(chan int, n) // sized to the number of sends: the generator never blocks
	answers := make([]answer, n)
	var sent atomic.Int64
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := range queue {
				sent.Add(1)
				t0 := time.Now()
				a, end := send(c, ops[i])
				answers[i] = a
				st.rtt[i] = float64(end.Sub(t0)) / float64(time.Millisecond)
				st.lat[i] = float64(end.Sub(due(i))) / float64(time.Millisecond)
				if tr != nil {
					tr.Record("loopback."+ops[i].kind, fmt.Sprintf("%s/%d", phase, i), 0, t0, end)
				}
			}
		}(c)
	}
	for i := 0; i < n; {
		now := time.Now()
		if d := due(i); now.Before(d) {
			sleepPrecise(d.Sub(now))
			continue
		}
		for ; i < n && !due(i).After(now); i++ {
			lag := now.Sub(due(i))
			st.lags[i] = float64(lag) / float64(time.Millisecond)
			if lag > st.maxLag {
				st.maxLag = lag
			}
			queue <- i
		}
	}
	st.backlog = n - int(sent.Load())
	close(queue)
	wg.Wait()
	for i, a := range answers {
		if err := verify(ops[i], a); err != nil {
			st.lat[i] = math.Inf(1) // a failed op misses every limit
			st.failures = append(st.failures, err)
		}
	}
	return st
}

// sleepPrecise blocks the calling thread in nanosleep(2). The runtime's
// timers wake sub-millisecond sleeps a whole millisecond late on an idle
// process, which would show up as generator lag in every op; the system
// call wakes within tens of microseconds and yields the processor while
// it waits.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// lagValid reports whether the generator kept its own schedule: its
// worst lateness must stay within a small share of the phase.
func (st loopStats) lagValid() bool {
	return st.maxLag <= st.span/50+5*time.Millisecond
}

// stepPasses is the ladder's rule for one rate: no op failed, the p99
// latency meets the limit, and the backlog did not grow beyond what the
// senders plus one limit's worth of arrivals can hold.
func stepPasses(st loopStats, limitMs float64, senders int) bool {
	if len(st.failures) > 0 || !st.lagValid() {
		return false
	}
	if st.backlog > senders+int(st.rate*limitMs/1000) {
		return false
	}
	return quantile(sortedCopy(st.lat), 0.99) <= limitMs
}

// ladderRates is the fixed ladder of offered rates: geometric steps of
// 3% from lo up to hi.
func ladderRates(lo, hi float64) []float64 {
	var out []float64
	for r := lo; r <= hi; r *= 1.03 {
		out = append(out, math.Round(r))
	}
	return out
}

// searchLadder finds the highest ladder index whose probe passes,
// assuming passes are (mostly) monotone: it climbs with doubling strides
// from index 0, then bisects between the last pass and the first fail.
// It returns -1 when even the lowest rate fails, and every index it
// probed in order.
func searchLadder(n int, probe func(i int) bool) (int, []int) {
	lo, hi := -1, n
	var probed []int
	try := func(i int) bool {
		probed = append(probed, i)
		return probe(i)
	}
	for i, stride := 0, 1; i < n; i, stride = i+stride, stride*2 {
		if !try(i) {
			hi = i
			break
		}
		lo = i
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probed
}
