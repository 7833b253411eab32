package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// seedManifest writes a manifest indexing n synthetic model entries
// into dir, so a store of any size opens without n Puts. The entries
// have no objects behind them; index operations never read objects.
func seedManifest(tb testing.TB, dir string, n int) {
	tb.Helper()
	m := manifest{Entries: make([]Entry, n)}
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := range m.Entries {
		m.Entries[i] = Entry{ID: ID([]byte(fmt.Sprint(i))), Kind: KindNetwork,
			Created: base.Add(time.Duration(i) * time.Second), Bytes: 100,
			Meta: map[string]string{"seed": fmt.Sprint(i)}}
	}
	data, err := json.Marshal(m)
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
		tb.Fatal(err)
	}
}

// missingID is a full-length ID that no test ever stores.
var missingID = strings.Repeat("f", 64)

// TestManifestSchema pins the on-disk index: {"entries": [Entry...]} in
// List's order, equal to the plain JSON encoding up to whitespace.
func TestManifestSchema(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.PutRaw(KindOutcomes, []byte(fmt.Sprintf(`{"n":%d}`, i)), map[string]string{"i": fmt.Sprint(i), "html": "<&>"}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(manifest{Entries: s.List("")})
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, got); err != nil {
		t.Fatalf("manifest is not JSON: %v\n%s", err, got)
	}
	if !bytes.Equal(compact.Bytes(), want) {
		t.Fatalf("manifest differs from the encoded index beyond whitespace:\n got %s\nwant %s", compact.Bytes(), want)
	}
}

// TestFailedCommitIsNotIndexed forces one manifest commit to fail: the
// Put must report it, and a retry of the same bytes must commit the
// artifact for real rather than answer from memory.
func TestFailedCommitIsNotIndexed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutRaw(KindOutcomes, []byte(`{"first":true}`), nil); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected rename failure")
	renameFile = func(from, to string) error {
		if filepath.Base(to) == "manifest.json" {
			return injected
		}
		return os.Rename(from, to)
	}
	doc := []byte(`{"second":true}`)
	_, err = s.PutRaw(KindOutcomes, doc, nil)
	renameFile = os.Rename
	if !errors.Is(err, injected) {
		t.Fatalf("Put with a failing manifest commit = %v, want the injected error", err)
	}
	if _, err := s.Resolve(ID(doc)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("uncommitted artifact resolves: %v", err)
	}
	e, err := s.PutRaw(KindOutcomes, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fresh.Raw(e.ID); err != nil {
		t.Fatalf("retried artifact missing from the manifest: %v", err)
	}
	if n := len(fresh.List("")); n != 2 {
		t.Fatalf("fresh store lists %d artifacts, want 2", n)
	}
}

// TestResolveErrors: unknown and ambiguous references wrap ErrNotFound;
// a damaged object does not.
func TestResolveErrors(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.PutRaw(KindOutcomes, []byte(`{"a":1}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []string{missingID, "abcd", ""} {
		if _, err := s.Resolve(ref); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Resolve(%q) = %v, want ErrNotFound", ref, err)
		}
	}
	if _, _, err := s.Raw(missingID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Raw(unknown) = %v, want ErrNotFound", err)
	}
	if err := os.WriteFile(s.objectPath(e.ID), []byte(`{"a":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Raw(e.ID); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Raw(tampered) = %v, want a corruption error", err)
	}
}

// TestReplacedManifestSeenByInode replaces the manifest behind a store
// with another store's version of the same size, and restores the old
// mtime: the inode alone tells the versions apart, and the first store
// must still pick up the new entry.
func TestReplacedManifestSeenByInode(t *testing.T) {
	dir, other := t.TempDir(), t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.PutRaw(KindOutcomes, []byte(`{"v":1}`), nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.json")
	old, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(other)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := b.PutRaw(KindOutcomes, []byte(`{"v":2}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(other, "manifest.json"), path); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, old.ModTime(), old.ModTime()); err != nil {
		t.Fatal(err)
	}
	now, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if now.Size() != old.Size() || !now.ModTime().Equal(old.ModTime()) {
		t.Fatalf("replacement differs in size or mtime (%d/%v vs %d/%v): the test needs only the inode to differ",
			now.Size(), now.ModTime(), old.Size(), old.ModTime())
	}
	if _, err := a.Resolve(e2.ID); err != nil {
		t.Fatalf("store missed a same-size, same-mtime replacement: %v", err)
	}
	if n := len(a.List("")); n != 2 {
		t.Fatalf("listed %d entries, want 2", n)
	}
}

// TestManifestDeletedAfterOpen: reads keep serving from memory without
// recreating the file, and the next Put writes every entry back.
func TestManifestDeletedAfterOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 2; i++ {
		e, err := s.PutRaw(KindOutcomes, []byte(fmt.Sprintf(`{"k":%d}`, i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, e.ID)
	}
	path := filepath.Join(dir, "manifest.json")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if _, err := s.Resolve(missingID); !errors.Is(err, ErrNotFound) {
			t.Fatalf("miss = %v, want ErrNotFound", err)
		}
		for _, id := range ids {
			if _, err := s.Resolve(id); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(s.List("")); n != 2 {
			t.Fatalf("listed %d entries, want 2", n)
		}
	}
	// The missing manifest is a version too: once seen, reads stop
	// going back to merge it.
	if !s.freshLocked() {
		t.Fatal("store does not treat the deleted manifest as its current version")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a read recreated the manifest: %v", err)
	}
	e, err := s.PutRaw(KindOutcomes, []byte(`{"k":2}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, e.ID)
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := fresh.Resolve(id); err != nil {
			t.Fatalf("recreated manifest lost %s: %v", id[:12], err)
		}
	}
}

// TestMissStormDuringPuts runs 404-style misses from 8 goroutines while
// one goroutine stores artifacts: every miss stays a clean not-found and
// every Put is listed as soon as it returns.
func TestMissStormDuringPuts(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	errs := make(chan error, 9) // one send at most per goroutine, the test's own included
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := s.Resolve(missingID); !errors.Is(err, ErrNotFound) {
					errs <- fmt.Errorf("miss during puts = %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		e, err := s.PutRaw(KindOutcomes, []byte(fmt.Sprintf(`{"put":%d}`, i)), nil)
		if err != nil {
			errs <- err
			break
		}
		listed := false
		for _, le := range s.List(KindOutcomes) {
			listed = listed || le.ID == e.ID
		}
		if !listed {
			errs <- fmt.Errorf("put %d not listed", i)
			break
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestIndexCostFlat: neither a miss nor Models allocates more with
// 2,000 stored artifacts than with 20, and a Put at most a few more.
func TestIndexCostFlat(t *testing.T) {
	allocs := func(n int) (miss, models, put float64) {
		dir := t.TempDir()
		seedManifest(t, dir, n)
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		miss = testing.AllocsPerRun(50, func() {
			if _, err := s.Resolve(missingID); err == nil {
				t.Fatal("missing ID resolved")
			}
		})
		models = testing.AllocsPerRun(50, func() {
			if len(s.Models()) != n {
				t.Fatal("Models lost entries")
			}
		})
		k := 0
		put = testing.AllocsPerRun(20, func() {
			k++
			if _, err := s.PutRaw(KindOutcomes, []byte(fmt.Sprintf(`{"k":%d}`, k)), nil); err != nil {
				t.Fatal(err)
			}
		})
		return miss, models, put
	}
	miss20, models20, put20 := allocs(20)
	miss2k, models2k, put2k := allocs(2000)
	t.Logf("allocs at N=20/2000: miss %v/%v, Models %v/%v, Put %v/%v", miss20, miss2k, models20, models2k, put20, put2k)
	if miss2k > miss20 {
		t.Errorf("a miss allocates %v at N=2000 vs %v at N=20", miss2k, miss20)
	}
	if models2k > models20 {
		t.Errorf("Models allocates %v at N=2000 vs %v at N=20", models2k, models20)
	}
	if put2k > put20+4 {
		t.Errorf("Put allocates %v at N=2000 vs %v at N=20", put2k, put20)
	}
}
