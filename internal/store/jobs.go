package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// The job tier's durable state lives next to the content-addressed
// object tree, but under different rules: job records and checkpoints
// are *mutable* documents keyed by job ID (a job's state changes as it
// runs), while the memo index is an append-only map from a request hash
// to the completed record. Layout:
//
//	<root>/jobs/<id>.json            — job record (atomic overwrite)
//	<root>/jobs/<id>.checkpoint.json — latest mid-campaign checkpoint
//	<root>/memo/<aa>/<key>.json      — memoized completion, aa = key[:2]
//
// Everything is written through the same temp-file + rename path as the
// object tree, so a crashed process never leaves a partial record: the
// restart either sees the previous state or the new one, which is
// exactly what checkpoint/resume needs.

// KindResult is the artifact kind for completed job results (the
// payloads memoized results point at).
const KindResult = "result"

// jobIDPattern guards the keyed-record filenames: job IDs and memo keys
// are hex strings, never path fragments.
var jobIDPattern = regexp.MustCompile(`^[a-f0-9]{6,64}$`)

func validKey(id string) error {
	if !jobIDPattern.MatchString(id) {
		return fmt.Errorf("store: invalid record key %q (want 6-64 lowercase hex chars)", id)
	}
	return nil
}

func (s *Store) jobPath(id string) string {
	return filepath.Join(s.root, "jobs", id+".json")
}

func (s *Store) checkpointPath(id string) string {
	return filepath.Join(s.root, "jobs", id+".checkpoint.json")
}

func (s *Store) memoPath(key string) string {
	return filepath.Join(s.root, "memo", key[:2], key+".json")
}

// MemoKey derives the content-addressed memoization key for a request:
// the sha256 of its canonical JSON serialisation. Identical robustness
// questions hash identically, so a million clients asking one question
// pay for one campaign.
func MemoKey(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("store: memo key: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// putKeyed atomically writes v as JSON at path, creating parents.
func putKeyed(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := atomicWrite(path, data); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// getKeyed loads the JSON document at path into v, reporting whether it
// existed.
func getKeyed(path string, v any) (bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("store: parsing %s: %w", path, err)
	}
	return true, nil
}

// PutJobRecord persists a job record under its ID, overwriting the
// previous state atomically.
func (s *Store) PutJobRecord(id string, v any) error {
	if err := validKey(id); err != nil {
		return err
	}
	return putKeyed(s.jobPath(id), v)
}

// JobRecord loads the job record for id into v, reporting whether one
// exists.
func (s *Store) JobRecord(id string, v any) (bool, error) {
	if err := validKey(id); err != nil {
		return false, err
	}
	return getKeyed(s.jobPath(id), v)
}

// JobRecordIDs lists the IDs of every persisted job record — the
// restart-recovery scan.
func (s *Store) JobRecordIDs() ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(s.root, "jobs", "*.json"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	ids := make([]string, 0, len(matches))
	for _, m := range matches {
		name := strings.TrimSuffix(filepath.Base(m), ".json")
		if strings.HasSuffix(name, ".checkpoint") {
			continue
		}
		if jobIDPattern.MatchString(name) {
			ids = append(ids, name)
		}
	}
	return ids, nil
}

// PutJobCheckpoint persists the latest mid-campaign checkpoint for a
// job, replacing any previous one. The write is atomic: a worker killed
// mid-checkpoint leaves the previous checkpoint intact.
func (s *Store) PutJobCheckpoint(id string, v any) error {
	if err := validKey(id); err != nil {
		return err
	}
	return putKeyed(s.checkpointPath(id), v)
}

// JobCheckpoint loads the latest checkpoint for a job into v, reporting
// whether one exists.
func (s *Store) JobCheckpoint(id string, v any) (bool, error) {
	if err := validKey(id); err != nil {
		return false, err
	}
	return getKeyed(s.checkpointPath(id), v)
}

// DeleteJobCheckpoint removes a job's checkpoint (on completion, the
// result artifact supersedes it). Missing checkpoints are not an error.
func (s *Store) DeleteJobCheckpoint(id string) error {
	if err := validKey(id); err != nil {
		return err
	}
	if err := os.Remove(s.checkpointPath(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// PutMemo records a completed computation under its request hash. The
// index is append-once: an existing memo wins (both describe the same
// deterministic computation).
func (s *Store) PutMemo(key string, v any) error {
	if err := validKey(key); err != nil {
		return err
	}
	path := s.memoPath(key)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	return putKeyed(path, v)
}

// Memo loads the memoized completion for a request hash into v,
// reporting whether one exists.
func (s *Store) Memo(key string, v any) (bool, error) {
	if err := validKey(key); err != nil {
		return false, err
	}
	return getKeyed(s.memoPath(key), v)
}
