package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync/atomic"
	"time"

	"kard/internal/core"
	"kard/internal/diskfault"
	"kard/internal/faultinject"
	"kard/internal/obs"
)

// cacheSchema names the on-disk result format. Bump it whenever the
// Result layout (or anything it transitively serializes) changes shape.
// v2: fault-injection plan joined the key; Stats gained robustness
// counters. v3: MaxFrames (frame budget) and core.Options.MaxRWKeys
// (pkey budget) joined the key; Result gained the engine Summary.
// v4: entries carry a CRC-32C over the serialized Result, so bit rot in
// the artifact store is detected and quarantined instead of silently
// feeding a corrupted verdict into a report.
// v5: sim.Race gained the Provenance forensic record, changing the
// serialized Result shape.
const cacheSchema = "kard-result-v5"

// quarantineDir is the subdirectory (under the cache root) that entries
// failing their checksum are moved into, preserving the evidence for
// kardfsck and humans while guaranteeing they are never trusted again.
const quarantineDir = "quarantine"

// crcCastagnoli is the CRC-32C table used for cache entry checksums
// (the same polynomial the journal frames use).
var crcCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// Cache is a content-addressed store of finished harness results: one
// JSON file per cell, keyed by the full run configuration plus a code
// version, so repeated kardbench invocations and report regenerations skip
// already-computed cells. It is safe for concurrent use by the RunMatrix
// workers.
type Cache struct {
	dir string

	// Version participates in every key. OpenCache initializes it from
	// DefaultCacheVersion; override it to force staleness semantics of
	// your own (tests do).
	Version string

	// shim is the seeded disk-fault layer captured at OpenCache (nil
	// when kardd -chaos-disk is not armed); all methods are nil-safe.
	shim *diskfault.Shim

	hits, misses, writes, writeErrs, corrupt, quarantined atomic.Uint64
}

// OpenCache creates (if needed) and opens a result cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: cache: %w", err)
	}
	return &Cache{dir: dir, Version: DefaultCacheVersion(), shim: diskfault.Active()}, nil
}

// DefaultCacheVersion derives the code-version component of cache keys:
// the on-disk schema name plus, when the binary carries VCS build info,
// the revision (and a dirty marker). Binaries built without VCS stamping
// fall back to the schema name alone — clear the cache after code changes
// in that case.
func DefaultCacheVersion() string {
	v := cacheSchema
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				v += "+" + s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				v += "+dirty"
			}
		}
	}
	return v
}

// cacheKey is the canonical identity of one cell. Field order is fixed by
// the struct, so its JSON encoding is deterministic and safe to hash.
type cacheKey struct {
	Version    string
	Workload   string
	Variant    string
	Mode       Mode
	Threads    int
	Scale      float64
	Seed       int64
	TLBEntries int
	Kard       core.Options
	// MaxFrames participates because a frame budget changes allocator
	// degradation behavior.
	MaxFrames uint64
	// Faults participates because an armed fault plan changes simulated
	// timing and counters. Options.Timeout and Options.Deadline
	// deliberately do not: a wall-clock bound never alters a run that
	// finishes. (Go marshals the plan's site map with sorted keys, so
	// the encoding stays deterministic.)
	Faults faultinject.Plan
}

// key normalizes the spec the same way Run does, so a spec with default
// (zero) options and its explicit equivalent address the same entry.
func (c *Cache) key(s Spec) cacheKey {
	k := cacheKey{
		Version:    c.Version,
		Workload:   s.Workload,
		Variant:    s.Variant,
		Mode:       s.Mode,
		Threads:    s.Threads,
		Scale:      s.Scale,
		Seed:       s.Seed,
		TLBEntries: s.TLBEntries,
		Kard:       s.Kard,
		MaxFrames:  s.MaxFrames,
		Faults:     s.Faults,
	}
	if k.Mode == "" {
		k.Mode = ModeBaseline
	}
	if k.Threads <= 0 {
		k.Threads = 4
	}
	if k.Scale <= 0 || k.Scale > 1 {
		k.Scale = 1
	}
	return k
}

// Path returns the cache file a spec maps to.
func (c *Cache) Path(s Spec) string {
	b, err := json.Marshal(c.key(s))
	if err != nil {
		// cacheKey is marshal-safe by construction.
		panic(fmt.Sprintf("harness: cache key: %v", err))
	}
	sum := sha256.Sum256(b)
	return filepath.Join(c.dir, hex.EncodeToString(sum[:16])+".json")
}

// cacheEntry is the on-disk format: the expanded key rides along for
// debuggability (the filename is only its hash). CRC is CRC-32C over the
// raw Result JSON bytes exactly as stored, so any bit rot inside the
// payload — the part that becomes a verdict — fails loudly on read.
type cacheEntry struct {
	Key     cacheKey
	SavedAt time.Time
	CRC     uint32
	Result  json.RawMessage
}

// Get returns the cached result for the spec, if present, readable, and
// passing its checksum. Entries that fail are quarantined (moved aside,
// never deleted) and recomputed.
func (c *Cache) Get(s Spec) (*Result, bool) {
	path := c.Path(s)
	data, err := os.ReadFile(path)
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	c.shim.CorruptRead(data)
	var e cacheEntry
	var r Result
	bad := json.Unmarshal(data, &e) != nil || e.Result == nil
	if !bad {
		bad = crc32.Checksum(e.Result, crcCastagnoli) != e.CRC ||
			json.Unmarshal(e.Result, &r) != nil
	}
	if bad {
		// A corrupt, truncated, or checksum-failing file is a miss, not
		// an error — and it is quarantined eagerly rather than left for
		// the eventual Put: if the fresh run fails (or the process dies
		// first), the poison entry must not survive to the next
		// invocation. Moving (not deleting) keeps the bytes for triage.
		c.corrupt.Add(1)
		c.misses.Add(1)
		c.quarantine(path)
		return nil, false
	}
	c.hits.Add(1)
	return &r, true
}

// quarantine moves a distrusted cache file into the quarantine
// subdirectory, counting and flight-recording the event. Failures
// degrade to deletion — the one unacceptable outcome is trusting the
// file again on the next read.
func (c *Cache) quarantine(path string) {
	qdir := filepath.Join(c.dir, quarantineDir)
	err := os.MkdirAll(qdir, 0o755)
	if err == nil {
		err = os.Rename(path, filepath.Join(qdir, filepath.Base(path)))
	}
	if err != nil {
		_ = os.Remove(path)
	}
	c.quarantined.Add(1)
	obs.Std.StorageCacheChecksumFails.Inc()
	obs.Std.StorageQuarantined.Inc()
	obs.Flight.Recordf(obs.EvStorageQuarantine,
		"cache entry %s failed validation; quarantined, cell will recompute", filepath.Base(path))
}

// Put stores a finished result. Writes go through a temp file that is
// fsync'd before an atomic rename, so concurrent writers and readers of
// the same cell never see a torn file — and neither does a reader after
// a crash: without the fsync a power cut can persist the rename but not
// the data, leaving exactly the torn entry the corrupt-entry path then
// deletes and recomputes.
func (c *Cache) Put(s Spec, r *Result) (err error) {
	defer func() {
		if err != nil {
			c.writeErrs.Add(1)
		}
	}()
	raw, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("harness: cache encode: %w", err)
	}
	data, err := json.Marshal(cacheEntry{
		Key:     c.key(s),
		SavedAt: time.Now().UTC(),
		CRC:     crc32.Checksum(raw, crcCastagnoli),
		Result:  raw,
	})
	if err != nil {
		return fmt.Errorf("harness: cache encode: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("harness: cache write: %w", err)
	}
	if short, ferr := c.shim.WriteFault(len(data)); ferr != nil {
		if short > 0 {
			tmp.Write(data[:short]) // leave the physical tear the fault models
		}
		tmp.Close()
		os.Remove(tmp.Name())
		// Cache writes are best-effort: no retry, the cell just
		// recomputes next invocation.
		return fmt.Errorf("harness: cache write: %w", ferr)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", err)
	}
	if ferr := c.shim.FsyncFault(); ferr != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", ferr)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", err)
	}
	if ferr := c.shim.RenameFault(); ferr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", ferr)
	}
	if err := os.Rename(tmp.Name(), c.Path(s)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", err)
	}
	// Sync the directory so a crash cannot lose the rename: without it
	// the entry's name may vanish while its (synced) data survives as an
	// orphan inode, and the cell silently recomputes forever.
	if err := syncCacheDir(c.dir); err != nil {
		return err
	}
	c.writes.Add(1)
	return nil
}

// syncCacheDir fsyncs the cache directory, making completed renames
// durable.
func syncCacheDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("harness: cache sync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("harness: cache sync dir: %w", err)
	}
	return nil
}

// CacheStats summarizes a cache's traffic since OpenCache. Corrupt counts
// entries that failed decoding or their checksum and were recomputed;
// they are also included in Misses. Quarantined counts the files moved
// into the quarantine subdirectory as a result.
type CacheStats struct {
	Hits, Misses, Writes, WriteErrors, Corrupt, Quarantined uint64
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Writes:      c.writes.Load(),
		WriteErrors: c.writeErrs.Load(),
		Corrupt:     c.corrupt.Load(),
		Quarantined: c.quarantined.Load(),
	}
}
