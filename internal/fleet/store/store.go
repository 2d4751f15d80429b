// Package store is the fleet's shared L2 result cache: a content-addressed
// blob store keyed by the server's canonical job keys. The in-memory
// result LRU inside each syncsimd stays L1; a store shared between the
// coordinator and its backends (the on-disk Disk implementation over a
// common directory) lets any fleet member serve a result any other member
// computed, across process restarts.
//
// The package sits below both internal/server (which consults it on L1
// misses) and internal/fleet (whose coordinator consults it before routing
// a cell), so it must not import either.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
)

// Store is a content-addressed result store. Keys are the server's
// canonical job keys (deterministic for a job's semantics); values are the
// JSON-encoded shareable payloads. Implementations must be safe for
// concurrent use by multiple goroutines AND multiple processes.
type Store interface {
	// Get returns the blob stored under key, if any. A damaged or
	// unreadable entry is a miss, never an error: the caller can always
	// recompute.
	Get(key string) ([]byte, bool)
	// Put stores blob under key, best-effort: the store is a cache, so a
	// failed write is silently dropped (the caller already has the
	// result).
	Put(key string, blob []byte)
}

// Disk is a Store over one directory. Each entry is a file named
// sha256(key).json — hashing makes any job key filesystem-safe and keeps
// the directory flat — written atomically (tmp file + rename) so a reader
// never observes a half-written blob, even with several syncsimd processes
// and a coordinator sharing the directory.
type Disk struct {
	dir string
}

// OpenDisk opens (creating if needed) the store directory and sweeps
// orphaned tmp files left by a process that crashed mid-Put. A tmp file
// is invisible to Get (entries are only ever the renamed *.json files),
// but a crash-looping fleet would otherwise accrete them forever. The
// sweep is best-effort and safe with concurrent writers: a *live* tmp
// file could in principle be swept between CreateTemp and Rename, but
// mounts happen at process start, before this store is handed to any
// writer — and even then the loser only drops one cache write.
func OpenDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	orphans, err := filepath.Glob(filepath.Join(dir, "put-*.tmp"))
	if err == nil {
		for _, o := range orphans {
			os.Remove(o) //nolint:errcheck // best-effort hygiene
		}
	}
	return &Disk{dir: dir}, nil
}

// path maps a job key to its blob file.
func (d *Disk) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:])+".json")
}

// Get implements Store.
func (d *Disk) Get(key string) ([]byte, bool) {
	blob, err := os.ReadFile(d.path(key))
	if err != nil || len(blob) == 0 {
		return nil, false
	}
	return blob, true
}

// Put implements Store. The tmp file lives in the store directory so the
// rename is same-filesystem and therefore atomic; on any failure the tmp
// file is removed and the entry simply stays absent.
func (d *Disk) Put(key string, blob []byte) {
	if len(blob) == 0 {
		return
	}
	tmp, err := os.CreateTemp(d.dir, "put-*.tmp")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name) //nolint:errcheck
		return
	}
	if err := os.Rename(name, d.path(key)); err != nil {
		os.Remove(name) //nolint:errcheck
	}
}
