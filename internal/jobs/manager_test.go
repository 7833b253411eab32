package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// campaignReq is the synthetic long-running campaign the tests run: N
// deterministic units accumulated sequentially, so any resumed prefix
// must reproduce the uninterrupted sum bit-for-bit.
type campaignReq struct {
	N    int64  `json:"n"`
	Seed uint64 `json:"seed"`
}

type campaignCkpt struct {
	Sum  float64 `json:"sum"`
	Done int64   `json:"done"`
}

// campaignExec builds an Exec for the synthetic campaign. hook, when
// non-nil, runs before each unit — the fault-injection point (block,
// panic, fail).
func campaignExec(checkpointEvery int64, hook func(t *Task, i int64) error) Exec {
	return func(t *Task) (any, error) {
		var req campaignReq
		if err := json.Unmarshal(t.Request(), &req); err != nil {
			return nil, err
		}
		var c campaignCkpt
		if _, err := t.RestoreCheckpoint(&c); err != nil {
			return nil, err
		}
		for i := c.Done; i < req.N; i++ {
			if err := t.Ctx().Err(); err != nil {
				t.Checkpoint(&c, c.Done, req.N)
				return nil, err
			}
			if hook != nil {
				if err := hook(t, i); err != nil {
					return nil, err
				}
			}
			c.Sum += math.Sin(float64(i)*1e-3 + float64(req.Seed))
			c.Done = i + 1
			if c.Done%checkpointEvery == 0 {
				if err := t.Checkpoint(&c, c.Done, req.N); err != nil {
					return nil, err
				}
			}
		}
		return map[string]any{"sum": c.Sum, "units": c.Done}, nil
	}
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustSubmit(t *testing.T, m *Manager, kind string, req any, memoKey string) Record {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := m.Submit(kind, data, memoKey)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// waitTerminal watches a job until it reaches a terminal state.
func waitTerminal(t *testing.T, m *Manager, id string) Record {
	t.Helper()
	ch, stop, err := m.Watch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	deadline := time.After(30 * time.Second)
	var last Record
	for {
		select {
		case rec, ok := <-ch:
			if !ok {
				return last
			}
			last = rec
			if rec.State.Terminal() {
				return rec
			}
		case <-deadline:
			t.Fatalf("job %s never terminated (last state %s)", id, last.State)
		}
	}
}

func TestLifecycleAndResult(t *testing.T) {
	st := openStore(t, t.TempDir())
	m, err := New(Config{Store: st, Exec: campaignExec(8, nil), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	rec := mustSubmit(t, m, "campaign", campaignReq{N: 40, Seed: 7}, "")
	if rec.State != StateQueued || rec.ID == "" {
		t.Fatalf("submitted record = %+v", rec)
	}
	final := waitTerminal(t, m, rec.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (error %q)", final.State, final.Error)
	}
	if final.ResultID == "" || final.Attempts != 1 || final.Completed != 40 || final.Total != 40 {
		t.Fatalf("final record = %+v", final)
	}
	if final.Checkpoints != 5 {
		t.Fatalf("checkpoints = %d, want 5 (40 units / every 8)", final.Checkpoints)
	}
	data, got, err := m.Result(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("Result record state = %s", got.State)
	}
	var payload struct {
		Sum   float64 `json:"sum"`
		Units int64   `json:"units"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Units != 40 {
		t.Fatalf("result payload = %+v", payload)
	}
	// Completion cleans the checkpoint up: the result supersedes it.
	var ck campaignCkpt
	if ok, _ := st.JobCheckpoint(rec.ID, &ck); ok {
		t.Fatal("checkpoint survived completion")
	}
	// The record is durable.
	var onDisk Record
	if ok, err := st.JobRecord(rec.ID, &onDisk); err != nil || !ok || onDisk.State != StateDone {
		t.Fatalf("persisted record = %+v, %v, %v", onDisk, ok, err)
	}
}

func TestMemoizationAndInFlightDedupe(t *testing.T) {
	st := openStore(t, t.TempDir())
	var runs atomic.Int64
	release := make(chan struct{})
	exec := campaignExec(8, func(tk *Task, i int64) error {
		if i == 0 {
			runs.Add(1)
			select {
			case <-release:
			case <-tk.Ctx().Done():
				return tk.Ctx().Err()
			}
		}
		return nil
	})
	m, err := New(Config{Store: st, Exec: exec, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	key, err := store.MemoKey(campaignReq{N: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	first := mustSubmit(t, m, "campaign", campaignReq{N: 16, Seed: 3}, key)

	// In-flight dedupe: an identical submission coalesces onto the
	// running job instead of queueing a duplicate campaign.
	dup := mustSubmit(t, m, "campaign", campaignReq{N: 16, Seed: 3}, key)
	if dup.ID != first.ID {
		t.Fatalf("in-flight duplicate got its own job: %s vs %s", dup.ID, first.ID)
	}
	close(release)
	final := waitTerminal(t, m, first.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (%s)", final.State, final.Error)
	}

	// Completed memoization: identical requests return the completed
	// record, flagged, without recomputation.
	memo := mustSubmit(t, m, "campaign", campaignReq{N: 16, Seed: 3}, key)
	if !memo.Memoized || memo.State != StateDone || memo.ResultID != final.ResultID {
		t.Fatalf("memoized record = %+v", memo)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("campaign executed %d times, want 1", got)
	}

	// The memo index is durable: a fresh manager on the same store
	// answers from it too.
	m2, err := New(Config{Store: openStore(t, st.Root()), Exec: exec, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	memo2 := mustSubmit(t, m2, "campaign", campaignReq{N: 16, Seed: 3}, key)
	if !memo2.Memoized || memo2.ResultID != final.ResultID {
		t.Fatalf("cross-process memo = %+v", memo2)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	st := openStore(t, t.TempDir())
	release := make(chan struct{})
	exec := campaignExec(8, func(tk *Task, i int64) error {
		select {
		case <-release:
			return nil
		case <-tk.Ctx().Done():
			return tk.Ctx().Err()
		}
	})
	m, err := New(Config{Store: st, Exec: exec, Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	// Worker 1 picks up job 1 and blocks; job 2 occupies the only queue
	// slot. A worker needs a beat to dequeue job 1.
	j1 := mustSubmit(t, m, "campaign", campaignReq{N: 4, Seed: 1}, "")
	waitForState(t, m, j1.ID, StateRunning)
	j2 := mustSubmit(t, m, "campaign", campaignReq{N: 4, Seed: 2}, "")

	if _, err := m.Submit("campaign", []byte(`{"n":4,"seed":3}`), ""); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission = %v, want ErrQueueFull", err)
	}
	if m.RetryAfter() <= 0 {
		t.Fatal("RetryAfter must be positive")
	}
	close(release)
	if rec := waitTerminal(t, m, j1.ID); rec.State != StateDone {
		t.Fatalf("job 1 = %s", rec.State)
	}
	if rec := waitTerminal(t, m, j2.ID); rec.State != StateDone {
		t.Fatalf("job 2 = %s", rec.State)
	}
	// Pressure released: submissions flow again.
	j4 := mustSubmit(t, m, "campaign", campaignReq{N: 4, Seed: 4}, "")
	if rec := waitTerminal(t, m, j4.ID); rec.State != StateDone {
		t.Fatalf("job 4 = %s", rec.State)
	}
}

func waitForState(t *testing.T, m *Manager, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rec, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	rec, _ := m.Get(id)
	t.Fatalf("job %s stuck in %s, want %s", id, rec.State, want)
}

func TestRetryTransientWithBackoff(t *testing.T) {
	st := openStore(t, t.TempDir())
	var calls atomic.Int64
	exec := campaignExec(4, func(tk *Task, i int64) error {
		if i == 2 && calls.Add(1) <= 2 {
			return Transient(fmt.Errorf("flaky shard"))
		}
		return nil
	})
	m, err := New(Config{Store: st, Exec: exec, Workers: 1, MaxAttempts: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	rec := mustSubmit(t, m, "campaign", campaignReq{N: 8, Seed: 5}, "")
	final := waitTerminal(t, m, rec.ID)
	if final.State != StateDone || final.Attempts != 3 {
		t.Fatalf("final = %+v, want done after 3 attempts", final)
	}
	if final.Error != "" {
		t.Fatalf("transient error leaked into the final record: %q", final.Error)
	}
}

func TestPermanentErrorFailsWithoutRetry(t *testing.T) {
	st := openStore(t, t.TempDir())
	exec := campaignExec(4, func(tk *Task, i int64) error {
		return fmt.Errorf("bad request shape")
	})
	m, err := New(Config{Store: st, Exec: exec, Workers: 1, MaxAttempts: 5, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	rec := mustSubmit(t, m, "campaign", campaignReq{N: 8, Seed: 5}, "")
	final := waitTerminal(t, m, rec.ID)
	if final.State != StateFailed || final.Attempts != 1 || final.Error != "bad request shape" {
		t.Fatalf("final = %+v, want failed on attempt 1", final)
	}
}

func TestWorkerPanicIsTransient(t *testing.T) {
	st := openStore(t, t.TempDir())
	var panicked atomic.Bool
	exec := campaignExec(4, func(tk *Task, i int64) error {
		if i == 5 && panicked.CompareAndSwap(false, true) {
			panic("worker dies mid-campaign")
		}
		return nil
	})
	m, err := New(Config{Store: st, Exec: exec, Workers: 1, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	rec := mustSubmit(t, m, "campaign", campaignReq{N: 12, Seed: 6}, "")
	final := waitTerminal(t, m, rec.ID)
	if final.State != StateDone || final.Attempts != 2 {
		t.Fatalf("final = %+v, want done on attempt 2", final)
	}
}

func TestAttemptDeadlineResumesFromCheckpoint(t *testing.T) {
	st := openStore(t, t.TempDir())
	var stalled atomic.Bool
	exec := campaignExec(1, func(tk *Task, i int64) error {
		// First attempt checkpoints unit 0 then stalls until the
		// deadline; the retry must resume past it.
		if i == 1 && stalled.CompareAndSwap(false, true) {
			<-tk.Ctx().Done()
			return tk.Ctx().Err()
		}
		return nil
	})
	m, err := New(Config{Store: st, Exec: exec, Workers: 1,
		Deadline: 100 * time.Millisecond, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	rec := mustSubmit(t, m, "campaign", campaignReq{N: 4, Seed: 8}, "")
	final := waitTerminal(t, m, rec.ID)
	if final.State != StateDone || final.Attempts != 2 {
		t.Fatalf("final = %+v, want done on attempt 2 after deadline", final)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	st := openStore(t, t.TempDir())
	started := make(chan struct{}, 1)
	exec := campaignExec(8, func(tk *Task, i int64) error {
		if i == 0 {
			select {
			case started <- struct{}{}:
			default:
			}
		}
		<-tk.Ctx().Done()
		return tk.Ctx().Err()
	})
	m, err := New(Config{Store: st, Exec: exec, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	running := mustSubmit(t, m, "campaign", campaignReq{N: 4, Seed: 1}, "")
	<-started
	queued := mustSubmit(t, m, "campaign", campaignReq{N: 4, Seed: 2}, "")

	if rec, ok, err := m.Cancel(queued.ID); err != nil || !ok || rec.State != StateCancelled {
		t.Fatalf("cancel queued = %+v, %v, %v", rec, ok, err)
	}
	if _, ok, err := m.Cancel(running.ID); err != nil || !ok {
		t.Fatalf("cancel running = %v, %v", ok, err)
	}
	if rec := waitTerminal(t, m, running.ID); rec.State != StateCancelled {
		t.Fatalf("running job = %s, want cancelled", rec.State)
	}
	// Cancelling a terminal job is a no-op reporting ok=false.
	if _, ok, err := m.Cancel(queued.ID); err != nil || ok {
		t.Fatalf("double cancel = %v, %v", ok, err)
	}
	if _, _, err := m.Cancel("00ff00ff00ff"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown = %v", err)
	}
}

// TestCrashResumeBitIdentical is the acceptance test for the tier's
// fault tolerance: a process killed mid-campaign (crash semantics — no
// state transition persisted, only the durable checkpoint) restarts,
// resumes from the checkpoint, and produces a result byte-identical to
// an uninterrupted run of the same request.
func TestCrashResumeBitIdentical(t *testing.T) {
	req := campaignReq{N: 64, Seed: 42}

	// Reference: uninterrupted run in its own store.
	refStore := openStore(t, t.TempDir())
	mRef, err := New(Config{Store: refStore, Exec: campaignExec(8, nil), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mRef.Close(context.Background())
	refRec := mustSubmit(t, mRef, "campaign", req, "")
	refFinal := waitTerminal(t, mRef, refRec.ID)
	refBytes, _, err := mRef.Result(refRec.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Victim: same campaign, killed after its third checkpoint.
	dir := t.TempDir()
	st1 := openStore(t, dir)
	blocked := make(chan struct{}, 1)
	exec1 := campaignExec(8, func(tk *Task, i int64) error {
		if i == 24 { // checkpoints at 8, 16, 24 have been written
			select {
			case blocked <- struct{}{}:
			default:
			}
			<-tk.Ctx().Done() // hang until the crash
			return tk.Ctx().Err()
		}
		return nil
	})
	m1, err := New(Config{Store: st1, Exec: exec1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	victim := mustSubmit(t, m1, "campaign", req, "")
	<-blocked
	m1.Kill() // SIGKILL semantics: on-disk record still says "running"

	var onDisk Record
	if ok, err := st1.JobRecord(victim.ID, &onDisk); err != nil || !ok {
		t.Fatalf("record lost in crash: %v %v", ok, err)
	}
	if onDisk.State != StateRunning {
		t.Fatalf("crashed record state = %s, want running (nothing persisted at kill)", onDisk.State)
	}
	var ck campaignCkpt
	if ok, _ := st1.JobCheckpoint(victim.ID, &ck); !ok || ck.Done != 24 {
		t.Fatalf("checkpoint = %+v, want prefix of 24 units", ck)
	}

	// Restart: recovery normalises the interrupted record. New starts
	// its workers before it returns, so a Get on the restarted manager
	// can already see the resumed run; observe recovery on a manager
	// whose workers never start, then on the record it persisted.
	st2 := openStore(t, dir)
	probe := &Manager{st: st2, jobs: map[string]*job{}, activeMemo: map[string]string{}}
	if _, err := probe.recover(); err != nil {
		t.Fatal(err)
	}
	resumed, ok := probe.jobs[victim.ID]
	if !ok {
		t.Fatal("restarted manager lost the job")
	}
	if resumed.rec.State == StateRunning {
		t.Fatalf("recovered state = %s before a worker picked it up", resumed.rec.State)
	}
	var persisted Record
	if ok, err := st2.JobRecord(victim.ID, &persisted); err != nil || !ok || persisted.State != resumed.rec.State {
		t.Fatalf("persisted recovered record = %s (%v %v), want %s", persisted.State, ok, err, resumed.rec.State)
	}

	// A fresh manager over the same store resumes the job from the
	// checkpoint — without the hook, so it runs out.
	m2, err := New(Config{Store: st2, Exec: campaignExec(8, nil), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	final := waitTerminal(t, m2, victim.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job = %s (%s)", final.State, final.Error)
	}
	gotBytes, _, err := m2.Result(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, refBytes) {
		t.Fatalf("resumed result differs from uninterrupted run:\n%s\nvs\n%s", gotBytes, refBytes)
	}
	if final.ResultID != refFinal.ResultID {
		t.Fatalf("content addresses differ: %s vs %s", final.ResultID, refFinal.ResultID)
	}
}

// TestGracefulDrainParksAndResumes: Close interrupts a running
// campaign, which checkpoints and is persisted as checkpointed; a new
// manager resumes and completes it.
func TestGracefulDrainParksAndResumes(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	reached := make(chan struct{}, 1)
	slow := campaignExec(4, func(tk *Task, i int64) error {
		if i >= 8 {
			select {
			case reached <- struct{}{}:
			default:
			}
			select {
			case <-tk.Ctx().Done():
				return tk.Ctx().Err()
			case <-time.After(10 * time.Second):
				return fmt.Errorf("drain never arrived")
			}
		}
		return nil
	})
	m1, err := New(Config{Store: st, Exec: slow, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := mustSubmit(t, m1, "campaign", campaignReq{N: 32, Seed: 9}, "")
	<-reached
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Close(ctx); err != nil {
		t.Fatalf("drain = %v", err)
	}
	// Draining rejects new work.
	if _, err := m1.Submit("campaign", []byte(`{"n":1}`), ""); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining = %v", err)
	}
	var parked Record
	if ok, err := st.JobRecord(rec.ID, &parked); err != nil || !ok {
		t.Fatalf("parked record: %v %v", ok, err)
	}
	if parked.State != StateCheckpointed {
		t.Fatalf("parked state = %s, want checkpointed", parked.State)
	}

	m2, err := New(Config{Store: openStore(t, dir), Exec: campaignExec(4, nil), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	final := waitTerminal(t, m2, rec.ID)
	if final.State != StateDone {
		t.Fatalf("resumed after drain = %s (%s)", final.State, final.Error)
	}
}
