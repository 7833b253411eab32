package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"syscall"
	"time"

	"repro/internal/activation"
	"repro/internal/conv"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/store"
)

// Ingest workload shape: one round is a fixed sequence of ingestOps ops
// on a fresh store, so every round ends at the same artifact count.
// A round is one percentile window, so that its p99 leaves more than
// ten samples beyond it.
const ingestOps = windowSize

// Mix of one round. The round ends with mixUploads + mixQuantize
// artifacts.
const (
	mixUploads  = 480
	mixQuantize = 120
	mixShortID  = 300
	mixList     = 60
	mixHealthz  = 120
	mixMissing  = 120
)

// minRounds is the fewest rounds a run makes, however short its
// measuring time: the reported figures are medians over rounds.
const minRounds = 3

// ingestEndSize is the artifact count every round ends at.
const ingestEndSize = mixUploads + mixQuantize

// ingestDoc draws the i-th distinct upload of a round: small dense,
// conv1d and graph documents in turn, so the store cost, not the
// parse, dominates.
func ingestDoc(seed uint64, round, i int) (*fixture, error) {
	r := rng.NewStream(seed^uint64(round+1)<<40, uint64(i))
	sig := activation.NewSigmoid(1)
	var m nn.Model
	switch i % 3 {
	case 0:
		m = nn.NewGlorot(r, nn.Config{InputDim: 2, Widths: []int{8, 8}, Act: sig, Bias: true})
	case 1:
		c, err := conv.NewRandom(r, 10, []int{3, 3}, []int{2, 2}, sig, 0.5, true)
		if err != nil {
			return nil, err
		}
		m = c
	default:
		m = graph.NewSmallWorld(r, 2, []int{8, 6}, sig, 2, 0.5)
	}
	return newFixture(fmt.Sprintf("upload-%d", i), m)
}

// ingestRound draws one round's ops. Each op's expected answer depends
// on what the round stored before it, so the ops run in order over one
// connection.
func ingestRound(seed uint64, round int) ([]op, error) {
	r := rng.New(seed ^ uint64(round+1)*0x5851f42d4c957f2d)
	kinds := make([]string, 0, ingestOps)
	add := func(kind string, n int) {
		for i := 0; i < n; i++ {
			kinds = append(kinds, kind)
		}
	}
	add("quantize", mixQuantize)
	add("bounds_short", mixShortID)
	add("list", mixList)
	add("healthz", mixHealthz)
	add("missing", mixMissing)
	add("upload", mixUploads-10)
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	// The first ten ops are uploads, so every read has something to find.
	kinds = append([]string{"upload", "upload", "upload", "upload", "upload", "upload", "upload", "upload", "upload", "upload"}, kinds...)

	var ops []op
	var stored []*fixture
	type quantSlot struct {
		fx   *fixture
		bits []int
	}
	var dense []*quantSlot
	qi := 0
	for _, kind := range kinds {
		switch kind {
		case "upload":
			fx, err := ingestDoc(seed, round, len(stored))
			if err != nil {
				return nil, err
			}
			stored = append(stored, fx)
			if _, ok := fx.model.(*nn.Network); ok {
				dense = append(dense, &quantSlot{fx: fx, bits: []int{8, 6, 4, 10, 12}})
			}
			ops = append(ops, op{kind: kind, method: http.MethodPost, path: "/v1/networks", body: fx.doc,
				check: expectJSON(http.StatusCreated, struct {
					ID string `json:"id"`
				}{fx.id})})
		case "quantize":
			// Round-robin over dense uploads, each bit width once: every
			// recipe is distinct, so no write is a dedup.
			var slot *quantSlot
			for tries := 0; tries < len(dense) && slot == nil; tries++ {
				if s := dense[qi%len(dense)]; len(s.bits) > 0 {
					slot = s
				}
				qi++
			}
			if slot == nil {
				return nil, fmt.Errorf("no dense upload left to quantize")
			}
			bits := slot.bits[0]
			slot.bits = slot.bits[1:]
			want, err := slot.fx.expectQuantize(bits)
			if err != nil {
				return nil, err
			}
			ops = append(ops, op{kind: kind, method: http.MethodPost, path: "/v1/quantize",
				body:  mustJSON(map[string]any{"network_id": slot.fx.id, "bits": bits}),
				check: expectJSON(http.StatusCreated, want)})
		case "bounds_short":
			fx := stored[r.Intn(len(stored))]
			faults := ones(fx.shape.Layers())
			ops = append(ops, op{kind: kind, method: http.MethodPost, path: "/v1/bounds",
				body:  mustJSON(map[string]any{"network_id": store.ShortID(fx.id), "faults": faults, "c": 1, "eps": 2, "eps_prime": 0.05}),
				check: expectJSON(http.StatusOK, fx.expectBounds(faults, 1, 2, 0.05))})
		case "list":
			want := len(stored)
			ops = append(ops, op{kind: kind, method: http.MethodGet, path: "/v1/networks",
				check: func(status int, body []byte) error {
					var got struct {
						Networks []struct{} `json:"networks"`
					}
					if err := expectStatus(http.StatusOK)(status, body); err != nil {
						return err
					}
					if err := json.Unmarshal(body, &got); err != nil {
						return err
					}
					if len(got.Networks) != want {
						return fmt.Errorf("listed %d networks, want %d", len(got.Networks), want)
					}
					return nil
				}})
		case "healthz":
			ops = append(ops, op{kind: kind, method: http.MethodGet, path: "/healthz",
				check: expectJSON(http.StatusOK, struct {
					Status string `json:"status"`
					Stored int    `json:"stored_networks"`
				}{"ok", len(stored)})})
		case "missing":
			var id [32]byte
			for k := 0; k < 4; k++ {
				v := r.Uint64()
				for b := 0; b < 8; b++ {
					id[8*k+b] = byte(v >> (8 * b))
				}
			}
			ops = append(ops, op{kind: kind, method: http.MethodPost, path: "/v1/bounds",
				body:  mustJSON(map[string]any{"network_id": hex.EncodeToString(id[:]), "faults": 1}),
				check: expectStatus(http.StatusNotFound)})
		}
	}
	return ops, nil
}

// runIngest is the store workload: closed-loop rounds of interleaved
// writes and reads, each on a fresh server and store, until the
// measuring time is used.
func runIngest(rc *runCtx) (map[string]metricValue, error) {
	var lat, puts, setups, rates, cpus []float64
	perKind := map[string][]float64{}
	var rss []float64
	deadline := time.Now().Add(time.Duration(rc.seconds) * time.Second)
	rounds := 0
	for ; rounds < minRounds || time.Now().Before(deadline); rounds++ {
		ops, err := ingestRound(rc.seed, rounds)
		if err != nil {
			return nil, err
		}
		// Each round starts with no dirty pages left by earlier rounds or
		// runs: their writeback would otherwise compete with this round's
		// writes, and later rounds would pay for earlier ones.
		syscall.Sync()
		dir := rc.storeDir("ingest")
		t0 := time.Now()
		srv, err := startServer(rc.bin, dir, serverProcs, 1)
		if err != nil {
			return nil, err
		}
		c := newClient(srv.base)
		err = roundTrip(c, op{kind: "healthz", method: http.MethodGet, path: "/healthz"})
		setups = append(setups, time.Since(t0).Seconds())
		var errs []error
		errs = appendErr(errs, err)
		cpu0, err := srv.cpuSeconds()
		errs = appendErr(errs, err)
		sampler := srv.sampleRSS()
		busy := 0.0
		for k, o := range ops {
			start := time.Now()
			a, end := send(c, o)
			rc.tr.Record("loopback."+o.kind, fmt.Sprintf("round%d/%d", rounds, k), 0, start, end)
			ms := float64(end.Sub(start)) / float64(time.Millisecond)
			if err := verify(o, a); err != nil {
				errs = append(errs, err)
				ms = math.Inf(1) // a failed op misses every limit
			}
			lat = append(lat, ms)
			busy += ms
			perKind[o.kind] = append(perKind[o.kind], ms)
			if o.kind == "upload" || o.kind == "quantize" {
				puts = append(puts, ms)
			}
		}
		c.close()
		rss = append(rss, sampler.finish()...)
		cpu1, err := srv.cpuSeconds()
		errs = appendErr(errs, err)
		cpus = append(cpus, 1000*(cpu1-cpu0)/float64(len(ops)))
		rates = append(rates, float64(len(ops))/(busy/1000))
		rc.out.count(len(ops)+1, errs)
		if err := srv.stop(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	rc.out.note("%-34s %d rounds of %d ops, each ending at %d artifacts", "rounds", rounds, ingestOps, ingestEndSize)
	for _, k := range sortedKeys(perKind) {
		s := sortedCopy(perKind[k])
		rc.out.note("%-34s n=%d p50=%.4g ms p99=%.4g ms", "  "+k, len(s), quantile(s, 0.5), quantile(s, 0.99))
	}
	all, err := latencySummary(rc.out, "ingest ops", lat)
	if err != nil {
		return nil, err
	}
	put, err := latencySummary(rc.out, "ingest writes", puts)
	if err != nil {
		return nil, err
	}
	work := median(rates)
	setup := median(setups)
	rc.out.metric("put_p50_ms", put.p50, "ms", "median latency of uploads and quantize writes")
	rc.out.metric("put_p99_ms", put.p99, "ms", "p99 latency of the same writes")
	rc.out.metric("setup_s", setup, "s", "server start on an empty store (median over rounds)")
	rc.out.metric("p50_ms", put.p50, "ms", "median write latency (the median over all ops sits on the cliff between reads and writes)")
	rc.out.metric("p90_ms", put.p90, "ms", "p90 write latency")
	rc.out.metric("p99_ms", all.p99, "ms", "p99 latency over every ingest op")
	rc.out.metric("work_per_s", work, "1/s", "ops per second of answer time (median over rounds)")
	cpuPerOp := median(cpus)
	rc.out.metric("cpu_ms_per_op", cpuPerOp, "ms", "server CPU per op (median over rounds)")
	rssMB := median(rss)
	rc.out.metric("rss_mb", rssMB, "MiB", "server resident set, median of 50ms samples over rounds")
	return map[string]metricValue{
		"setup_s":       {setup, "s"},
		"p50_ms":        {put.p50, "ms"},
		"p90_ms":        {put.p90, "ms"},
		"p99_ms":        {all.p99, "ms"},
		"work_per_s":    {work, "1/s"},
		"cpu_ms_per_op": {cpuPerOp, "ms"},
		"rss_mb":        {rssMB, "MiB"},
	}, nil
}
