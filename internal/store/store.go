// Package store is a content-addressed JSON artifact store: every
// artifact (trained network, quantised model recipe, experiment outcome
// set) is serialised to canonical JSON, addressed by the sha256 of those
// bytes, and indexed in a human-readable manifest. Content addressing
// makes campaigns resumable and comparable — saving the same network
// twice yields the same ID, and an ID retrieved from a report always
// names exactly the bytes that produced it.
//
// Layout under the root directory:
//
//	<root>/manifest.json                — the index: one Entry per artifact
//	<root>/objects/<aa>/<id>.json       — the artifact bytes (aa = id[:2])
//	<root>/objects/<aa>/<id>.entry.json — the artifact's Entry (sidecar)
//
// Object files are immutable once written (writes go through a
// temp-file + rename, so readers never observe partial objects) and are
// plain JSON, inspectable with jq. The manifest is rewritten atomically
// on every new artifact, by concatenating each entry's compact JSON,
// encoded once when the entry is indexed (entries are immutable). Each
// Store remembers which version of manifest.json it last read or wrote
// (inode, size and mtime) and re-reads the file only when a stat shows
// another process replaced it, so artifacts added by another process (a
// CLI ingest next to a running server) become visible without a restart,
// and neither lookups nor writes re-parse an unchanged index. Each object
// also carries its Entry as a sidecar — the manifest is a derived index,
// and Rebuild reconstructs it from the object tree if it is ever lost or
// clobbered.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// Kinds used by the typed helpers. Put accepts any non-empty kind.
const (
	KindNetwork   = "network"
	KindConv      = "conv"
	KindGraph     = "graph"
	KindQuantized = "quantized"
	KindOutcomes  = "outcomes"
)

// Entry is one manifest record: the addressable identity of an artifact.
type Entry struct {
	// ID is the lowercase hex sha256 of the artifact bytes.
	ID string `json:"id"`
	// Kind classifies the artifact (network, quantized, outcomes, ...).
	Kind string `json:"kind"`
	// Created is the wall-clock time of the first Put.
	Created time.Time `json:"created"`
	// Bytes is the serialised size.
	Bytes int `json:"bytes"`
	// Meta carries free-form labels (target, widths, campaign name, ...).
	Meta map[string]string `json:"meta,omitempty"`
}

// manifest is the serialised index.
type manifest struct {
	Entries []Entry `json:"entries"`
}

// ErrNotFound is wrapped by Resolve, and every lookup built on it, when
// a reference names no single stored artifact: an unknown ID, an
// ambiguous prefix, or one too short to be a prefix.
var ErrNotFound = errors.New("no artifact")

// errCorrupt marks a manifest that exists but does not parse.
var errCorrupt = errors.New("store: corrupt manifest")

// record is one indexed entry with its compact manifest line, encoded
// once: entries are immutable.
type record struct {
	Entry
	line []byte
}

// byManifestOrder orders records oldest first with ID as the tiebreak.
func byManifestOrder(a, b *record) int {
	if c := a.Created.Compare(b.Created); c != 0 {
		return c
	}
	return strings.Compare(a.ID, b.ID)
}

// Store is an artifact store rooted at one directory. Methods are safe
// for concurrent use by multiple goroutines.
type Store struct {
	root string

	mu        sync.RWMutex
	entries   map[string]*record
	order     []*record // entries in manifest order
	lineBytes int       // total length of the cached manifest lines
	// seen is the version of manifest.json this store last read or
	// wrote; nil stands for "no manifest".
	seen os.FileInfo
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty root directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{root: dir, entries: map[string]*record{}}
	err := s.mergeManifestLocked()
	switch {
	case errors.Is(err, errCorrupt):
		// A corrupt manifest is recoverable state, not a fatal error:
		// the object tree is the source of truth, the manifest only a
		// derived index. Rebuild it, quarantining unreadable objects.
		if _, err := s.Rebuild(); err != nil {
			return nil, fmt.Errorf("store: manifest corrupt and rebuild failed: %w", err)
		}
	case err != nil:
		return nil, err
	case s.seen == nil && s.hasObjects():
		// Fresh store — unless the object tree already holds artifacts,
		// in which case the index was lost: self-heal by rebuilding it
		// from the objects instead of serving an empty store.
		if _, err := s.Rebuild(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// hasObjects reports whether the object tree holds at least one
// artifact file.
func (s *Store) hasObjects() bool {
	matches, err := filepath.Glob(filepath.Join(s.root, "objects", "*", "*.json"))
	return err == nil && len(matches) > 0
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

func (s *Store) manifestPath() string { return filepath.Join(s.root, "manifest.json") }

func (s *Store) objectPath(id string) string {
	return filepath.Join(s.root, "objects", id[:2], id+".json")
}

func (s *Store) entryPath(id string) string {
	return filepath.Join(s.root, "objects", id[:2], id+".entry.json")
}

// ID returns the content address of the given artifact bytes.
func ID(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Put serialises v as JSON and stores it under its content address.
// Storing identical content twice is a no-op returning the original
// entry (the first meta wins — the ID names the bytes, not the labels).
func (s *Store) Put(kind string, v any, meta map[string]string) (Entry, error) {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return Entry{}, fmt.Errorf("store: %w", err)
	}
	return s.PutRaw(kind, data, meta)
}

// PutRaw stores pre-serialised JSON bytes under their content address.
func (s *Store) PutRaw(kind string, data []byte, meta map[string]string) (Entry, error) {
	if kind == "" {
		return Entry{}, fmt.Errorf("store: empty artifact kind")
	}
	if !json.Valid(data) {
		return Entry{}, fmt.Errorf("store: artifact is not valid JSON")
	}
	id := ID(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.entries[id]; ok {
		return r.Entry, nil
	}
	// Another process may have both stored this artifact and extended
	// the manifest since we last read it: merge before deciding and
	// before rewriting, so concurrent stores do not drop each other's
	// entries.
	if err := s.mergeManifestLocked(); err != nil {
		return Entry{}, err
	}
	if r, ok := s.entries[id]; ok {
		return r.Entry, nil
	}
	path := s.objectPath(id)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return Entry{}, fmt.Errorf("store: %w", err)
	}
	if _, err := atomicWrite(path, data); err != nil {
		return Entry{}, fmt.Errorf("store: %w", err)
	}
	e := Entry{ID: id, Kind: kind, Created: time.Now().UTC().Truncate(time.Second), Bytes: len(data), Meta: meta}
	sidecar, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return Entry{}, fmt.Errorf("store: %w", err)
	}
	if _, err := atomicWrite(s.entryPath(id), sidecar); err != nil {
		return Entry{}, fmt.Errorf("store: %w", err)
	}
	// The entry is indexed only while its manifest commit stands: an
	// entry the manifest never received must not answer a retry.
	i, err := s.insertLocked(e)
	if err != nil {
		return Entry{}, err
	}
	if err := s.writeManifestLocked(); err != nil {
		s.removeLocked(i)
		return Entry{}, err
	}
	return e, nil
}

// Resolve returns the entry for an ID or a unique ID prefix (at least 6
// hex characters). Unknown and ambiguous references are errors wrapping
// ErrNotFound. A miss re-reads the on-disk manifest first if another
// process replaced it, so artifacts stored by another process resolve
// without reopening the store.
func (s *Store) Resolve(ref string) (Entry, error) {
	ref = strings.ToLower(strings.TrimSpace(ref))
	if len(ref) < 6 {
		return Entry{}, fmt.Errorf("store: id %q too short (need >= 6 hex chars): %w", ref, ErrNotFound)
	}
	s.mu.RLock()
	e, err := s.resolveLocked(ref)
	fresh := err == nil || s.freshLocked()
	s.mu.RUnlock()
	if fresh {
		return e, err
	}
	// The miss may just be staleness: merge the on-disk manifest and
	// retry once.
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.mergeManifestLocked(); err != nil {
		return Entry{}, err
	}
	return s.resolveLocked(ref)
}

// resolveLocked resolves an exact ID or unique prefix; s.mu must be
// held (read or write).
func (s *Store) resolveLocked(ref string) (Entry, error) {
	if r, ok := s.entries[ref]; ok {
		return r.Entry, nil
	}
	var found []Entry
	for id, r := range s.entries {
		if strings.HasPrefix(id, ref) {
			found = append(found, r.Entry)
		}
	}
	switch len(found) {
	case 0:
		return Entry{}, fmt.Errorf("store: %w with id %q", ErrNotFound, ref)
	case 1:
		return found[0], nil
	default:
		return Entry{}, fmt.Errorf("store: id prefix %q is ambiguous (%d matches): %w", ref, len(found), ErrNotFound)
	}
}

// freshLocked reports whether manifest.json is still the version this
// store last read or wrote; s.mu must be held (read or write). A stat
// that fails other than by absence reports a change, so the caller's
// merge surfaces the error.
func (s *Store) freshLocked() bool {
	fi, err := os.Stat(s.manifestPath())
	if err != nil {
		return os.IsNotExist(err) && s.seen == nil
	}
	return sameVersion(fi, s.seen)
}

// sameVersion reports whether two stats of manifest.json name the same
// version of it. Writers replace the file by rename, so a new version
// is a new inode; size and mtime guard against inode reuse.
func sameVersion(a, b os.FileInfo) bool {
	if a == nil || b == nil {
		return a == b
	}
	return os.SameFile(a, b) && a.Size() == b.Size() && a.ModTime().Equal(b.ModTime())
}

// mergeManifestLocked folds the on-disk manifest into the in-memory
// index unless it is the version the store already holds (in-memory
// entries win on conflict — both name the same immutable bytes); s.mu
// must be held for writing.
func (s *Store) mergeManifestLocked() error {
	f, err := os.Open(s.manifestPath())
	if os.IsNotExist(err) {
		s.seen = nil
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	// Stamp the version from the descriptor the bytes are read from, so
	// a rename landing after this point shows as a change next time.
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if sameVersion(fi, s.seen) {
		return nil
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("%w %s: %v", errCorrupt, s.manifestPath(), err)
	}
	for _, e := range m.Entries {
		if _, ok := s.entries[e.ID]; !ok {
			if _, err := s.insertLocked(e); err != nil {
				return err
			}
		}
	}
	s.seen = fi
	return nil
}

// insertLocked indexes e at its place in manifest order and returns
// that position; s.mu must be held for writing.
func (s *Store) insertLocked(e Entry) (int, error) {
	line, err := json.Marshal(e)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	r := &record{Entry: e, line: line}
	i, _ := slices.BinarySearchFunc(s.order, r, byManifestOrder)
	s.order = slices.Insert(s.order, i, r)
	s.entries[e.ID] = r
	s.lineBytes += len(line)
	return i, nil
}

// removeLocked un-indexes the entry at position i of the manifest
// order; s.mu must be held for writing.
func (s *Store) removeLocked(i int) {
	r := s.order[i]
	delete(s.entries, r.ID)
	s.lineBytes -= len(r.line)
	s.order = slices.Delete(s.order, i, i+1)
}

// RebuildReport summarises a manifest reconstruction.
type RebuildReport struct {
	// Indexed counts the artifacts recovered into the new manifest.
	Indexed int
	// Quarantined counts unreadable objects moved aside (bad JSON, or
	// content that no longer hashes to its filename).
	Quarantined int
}

// Rebuild reconstructs the index by scanning the object tree and
// rewrites the manifest — the recovery path for a lost or damaged
// manifest.json (Open takes it automatically). The objects themselves
// are the source of truth: every readable object whose content still
// hashes to its filename is re-indexed (its entry sidecar supplies
// kind/meta when readable, and is re-synthesised otherwise), while
// unreadable or corrupted objects are quarantined under
// <root>/quarantine/ instead of failing the whole store open.
func (s *Store) Rebuild() (RebuildReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep RebuildReport
	objects, err := filepath.Glob(filepath.Join(s.root, "objects", "*", "*.json"))
	if err != nil {
		return rep, fmt.Errorf("store: %w", err)
	}
	s.entries, s.order, s.lineBytes = map[string]*record{}, nil, 0
	for _, path := range objects {
		name := filepath.Base(path)
		if strings.HasSuffix(name, ".entry.json") {
			continue // sidecars are handled with their object
		}
		id := strings.TrimSuffix(name, ".json")
		data, err := os.ReadFile(path)
		if err != nil || !json.Valid(data) || ID(data) != id {
			// The object cannot back its own address: quarantine it (and
			// its sidecar) rather than indexing bytes Raw would reject.
			rep.Quarantined++
			s.quarantineFiles(path, s.entryPath(id))
			continue
		}
		e, ok := readSidecar(s.entryPath(id), id)
		if !ok {
			// Lost sidecar: synthesise an entry from the object itself so
			// the artifact stays reachable, and rewrite the sidecar.
			info, statErr := os.Stat(path)
			created := time.Now().UTC().Truncate(time.Second)
			if statErr == nil {
				created = info.ModTime().UTC().Truncate(time.Second)
			}
			e = Entry{ID: id, Kind: sniffKind(data), Created: created, Bytes: len(data),
				Meta: map[string]string{"recovered": "rebuild"}}
			if sidecar, err := json.MarshalIndent(e, "", " "); err == nil {
				_, _ = atomicWrite(s.entryPath(id), sidecar)
			}
		}
		if _, err := s.insertLocked(e); err != nil {
			return rep, err
		}
	}
	rep.Indexed = len(s.order)
	if err := s.writeManifestLocked(); err != nil {
		return rep, err
	}
	return rep, nil
}

// readSidecar loads an entry sidecar, accepting it only when it names
// the object it sits next to.
func readSidecar(path, id string) (Entry, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Entry{}, false
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil || e.ID != id || e.Kind == "" {
		return Entry{}, false
	}
	return e, true
}

// sniffKind classifies an artifact document whose sidecar is lost, from
// the document's own structure.
func sniffKind(data []byte) string {
	trimmed := strings.TrimLeftFunc(string(data), func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == '\r'
	})
	if strings.HasPrefix(trimmed, "[") {
		return KindOutcomes
	}
	var probe struct {
		Arch      string          `json:"arch"`
		Hidden    json.RawMessage `json:"hidden"`
		NetworkID string          `json:"network_id"`
		Options   json.RawMessage `json:"options"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return "unknown"
	}
	switch {
	case probe.Arch == "graph":
		return KindGraph
	case probe.Arch != "":
		return KindConv
	case probe.NetworkID != "" && len(probe.Options) > 0:
		return KindQuantized
	case len(probe.Hidden) > 0:
		return KindNetwork
	}
	return "unknown"
}

// quarantineFiles moves damaged files into <root>/quarantine/ (best
// effort: quarantine must never make recovery worse).
func (s *Store) quarantineFiles(paths ...string) {
	qdir := filepath.Join(s.root, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			continue
		}
		_ = os.Rename(p, filepath.Join(qdir, filepath.Base(p)))
	}
}

// Raw returns the stored bytes and entry for an ID or unique prefix.
func (s *Store) Raw(ref string) ([]byte, Entry, error) {
	e, err := s.Resolve(ref)
	if err != nil {
		return nil, Entry{}, err
	}
	data, err := os.ReadFile(s.objectPath(e.ID))
	if err != nil {
		return nil, Entry{}, fmt.Errorf("store: %w", err)
	}
	if got := ID(data); got != e.ID {
		return nil, Entry{}, fmt.Errorf("store: object %s corrupted (content hashes to %s)", e.ID, got)
	}
	return data, e, nil
}

// Get unmarshals the artifact for an ID or unique prefix into v.
func (s *Store) Get(ref string, v any) (Entry, error) {
	data, e, err := s.Raw(ref)
	if err != nil {
		return Entry{}, err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return Entry{}, fmt.Errorf("store: parsing artifact %s: %w", e.ID, err)
	}
	return e, nil
}

// List returns the entries of the given kind ("" lists everything),
// oldest first with ID as the tiebreak. The on-disk manifest is merged
// first if another process replaced it, so other processes' artifacts
// are listed too.
func (s *Store) List(kind string) []Entry {
	return s.collect(func(k string) bool { return kind == "" || k == kind })
}

// collect returns the entries whose kind keep accepts, in manifest
// order.
func (s *Store) collect(keep func(kind string) bool) []Entry {
	s.mu.RLock()
	if !s.freshLocked() {
		s.mu.RUnlock()
		s.mu.Lock()
		// Best effort: a damaged manifest should not take listing down
		// with it — the in-memory index still serves.
		_ = s.mergeManifestLocked()
		s.mu.Unlock()
		s.mu.RLock()
	}
	defer s.mu.RUnlock()
	out := make([]Entry, 0, len(s.order))
	for _, r := range s.order {
		if keep(r.Kind) {
			out = append(out, r.Entry)
		}
	}
	return out
}

// writeManifestLocked rewrites the manifest atomically from the cached
// entry lines; s.mu must be held for writing.
func (s *Store) writeManifestLocked() error {
	const head, tail = `{"entries": [`, "\n]}\n"
	data := make([]byte, 0, len(head)+s.lineBytes+2*len(s.order)+len(tail))
	data = append(data, head...)
	for i, r := range s.order {
		if i > 0 {
			data = append(data, ',')
		}
		data = append(data, '\n')
		data = append(data, r.line...)
	}
	data = append(data, tail...)
	fi, err := atomicWrite(s.manifestPath(), data)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.seen = fi
	return nil
}

// renameFile installs a written temp file; a variable so tests can fail
// one commit.
var renameFile = os.Rename

// atomicWrite writes data to path via a temp file + rename so readers
// never observe a partial file. It returns the stat of the file as
// installed, taken before the rename (which keeps the inode), so a
// later replacement by another writer can never pass for this version.
func atomicWrite(path string, data []byte) (os.FileInfo, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return nil, err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	fi, err := os.Stat(tmp.Name())
	if err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := renameFile(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	return fi, nil
}
