package serve

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Store is the content-addressed result store: finished job results keyed
// by the job fingerprint, persisted as <dir>/<hash>.json with atomic
// writes, fronted by a bounded in-memory LRU layer. Replayed submissions
// are served from here without touching the engine, and results survive
// daemon restarts. A store opened without a directory is the LRU alone.
type Store struct {
	dir string
	cap int

	mu   sync.Mutex
	lru  *list.List // front = most recent; values are *storeEntry
	byID map[string]*list.Element

	hitsMem   atomic.Int64
	hitsDisk  atomic.Int64
	misses    atomic.Int64
	puts      atomic.Int64
	evictions atomic.Int64
	badFiles  atomic.Int64 // torn/partial files ignored on read
}

type storeEntry struct {
	id   string
	data []byte
}

// OpenStore opens (creating if needed) a result store rooted at dir,
// keeping up to capEntries results resident in memory (<= 0 selects 256).
// An empty dir keeps results in memory only: evicted results are gone.
func OpenStore(dir string, capEntries int) (*Store, error) {
	if capEntries <= 0 {
		capEntries = 256
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &Store{dir: dir, cap: capEntries, lru: list.New(), byID: map[string]*list.Element{}}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps an ID to its on-disk file. IDs are validated hex fingerprints,
// so the join cannot escape the store directory.
func (s *Store) path(id string) string { return filepath.Join(s.dir, id+".json") }

// validID accepts exactly the lowercase-hex SHA-256 IDs the fingerprint
// produces; everything else is rejected before touching the filesystem.
func validID(id string) bool { return lowerHex(id, 64) }

// Get returns the stored result bytes for a job ID. The memory layer is
// consulted first; on a disk hit the entry is promoted into memory. A file
// that is not complete valid JSON — a torn write from a crash predating
// the atomic-rename discipline, or manual tampering — is ignored rather
// than served. Callers must not mutate the returned slice.
func (s *Store) Get(id string) ([]byte, bool) {
	if !validID(id) {
		return nil, false
	}
	s.mu.Lock()
	if el, ok := s.byID[id]; ok {
		s.lru.MoveToFront(el)
		data := el.Value.(*storeEntry).data
		s.mu.Unlock()
		s.hitsMem.Add(1)
		return data, true
	}
	s.mu.Unlock()

	if s.dir == "" {
		s.misses.Add(1)
		return nil, false
	}
	data, err := os.ReadFile(s.path(id))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	if !json.Valid(data) {
		s.badFiles.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.hitsDisk.Add(1)
	s.insert(id, data)
	return data, true
}

// Put persists a result under its job ID: an atomic temp-file + rename on
// disk, then insertion into the memory layer. A crash mid-Put leaves
// either the previous file or the new one, never a truncated mix.
func (s *Store) Put(id string, data []byte) error {
	if !validID(id) {
		return fmt.Errorf("store: invalid id %q", id)
	}
	if s.dir != "" {
		if err := obs.WriteFileAtomic(s.path(id), data); err != nil {
			return err
		}
	}
	s.puts.Add(1)
	s.insert(id, data)
	return nil
}

// insert adds (or refreshes) a memory-layer entry, evicting from the LRU
// tail past capacity. Evicted results remain on disk.
func (s *Store) insert(id string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byID[id]; ok {
		el.Value.(*storeEntry).data = data
		s.lru.MoveToFront(el)
		return
	}
	s.byID[id] = s.lru.PushFront(&storeEntry{id: id, data: data})
	for s.lru.Len() > s.cap {
		back := s.lru.Back()
		delete(s.byID, back.Value.(*storeEntry).id)
		s.lru.Remove(back)
		s.evictions.Add(1)
	}
}

// Resident returns how many results the memory layer currently holds.
func (s *Store) Resident() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Metrics snapshots the store counters for the registry view.
func (s *Store) Metrics() map[string]float64 {
	return map[string]float64{
		"resident":   float64(s.Resident()),
		"cap":        float64(s.cap),
		"hits_mem":   float64(s.hitsMem.Load()),
		"hits_disk":  float64(s.hitsDisk.Load()),
		"misses":     float64(s.misses.Load()),
		"puts":       float64(s.puts.Load()),
		"evictions":  float64(s.evictions.Load()),
		"bad_files":  float64(s.badFiles.Load()),
		"hits_total": float64(s.hitsMem.Load() + s.hitsDisk.Load()),
	}
}
