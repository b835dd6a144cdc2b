// Package tcache is the persistent retranslation cache: the read that
// replaces a translation. RunAdaptive (and any repeated axcel invocation)
// retranslates the same codefile under the same profile over and over; the
// Accelerator is deterministic, so the pair (input fingerprint, every
// output-affecting option — including the profile hash) fully determines
// the acceleration section. The cache stores the whole accelerated
// codefile under that key; a hit grafts the cached section after the same
// integrity gates any loaded codefile passes (v5 checksums in
// codefile.Read, AccelSection.Verify, and an input-fingerprint recheck),
// so a damaged or mismatched cache entry degrades to a cold translation,
// never to wrong code.
//
// The cache is also the tnsxlated service's content-addressed codefile
// store: the service computes the same TransKey, looks entries up with
// GetVerified (every served byte passes the full gate on the way out), and
// populates them with Put after a queued translation completes.
package tcache

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/millicode"
	"tnsr/internal/store"
)

// entrySuffix names cache entries in the backing store.
const entrySuffix = ".tns"

// Cache is a store of accelerated codefiles keyed by core.Options.TransKey.
// Safe for concurrent use: entries are written atomically by the Storage,
// and a racing double-translation writes identical bytes by determinism.
type Cache struct {
	st store.Storage

	// maxBytes, when > 0, bounds the total size of stored entries;
	// exceeding it evicts least-recently-used entries (hits Touch their
	// entry, so recency tracks use, not write order). evictMu serializes
	// the scan-and-evict pass; everything else is lock-free.
	maxBytes int64
	evictMu  sync.Mutex

	hits, misses, rejects, evictions, putErrs atomic.Int64
}

// Stats is a point-in-time view of cache effectiveness.
type Stats struct {
	// Hits served a translation from disk; Misses translated cold and
	// populated the cache; Rejects found an entry that failed an
	// integrity gate and retranslated (the entry is replaced); Evictions
	// counts entries dropped by the size cap; PutErrs counts populations
	// the backing store refused (ENOSPC, I/O error) — the translation
	// still succeeded, the cache just didn't keep it.
	Hits, Misses, Rejects, Evictions, PutErrs int64
}

// Open opens (creating if needed) a cache rooted at a single directory.
func Open(dir string) (*Cache, error) {
	st, err := store.OpenDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tcache: %w", err)
	}
	return New(st), nil
}

// New builds a cache over any Storage (a sharded store spreads entries by
// TransKey prefix across directories; see store.OpenSharded).
func New(st store.Storage) *Cache {
	return &Cache{st: st}
}

// SetMaxBytes bounds the cache's total on-disk size; <= 0 (the default)
// means unbounded. When a Put pushes the total over the cap, least-
// recently-used entries are evicted until it fits again. The entry just
// written always survives, so the write that triggered eviction is never
// its own victim.
func (c *Cache) SetMaxBytes(n int64) { c.maxBytes = n }

// Stats returns the counters accumulated since Open.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Rejects: c.rejects.Load(), Evictions: c.evictions.Load(),
		PutErrs: c.putErrs.Load(),
	}
}

// SizeBytes returns the total stored size and entry count.
func (c *Cache) SizeBytes() (bytes int64, entries int) {
	ents, err := c.st.List()
	if err != nil {
		return 0, 0
	}
	for _, e := range ents {
		bytes += e.Size
	}
	return bytes, len(ents)
}

// Accelerate is core.Accelerate behind the cache: on a hit the codefile
// gains the cached acceleration section without translating; on a miss it
// translates cold and persists the result. The emitted section is
// byte-identical either way (test-pinned), so callers can treat the hit
// flag as pure telemetry.
func (c *Cache) Accelerate(f *codefile.File, opts core.Options) (hit bool, err error) {
	fp := f.Fingerprint()
	key, err := opts.TransKey(fp)
	if err != nil {
		return false, err
	}
	if cf := c.getVerified(key, fp, millicode.CodeBase(opts.Space)); cf != nil {
		f.Accel = cf.Accel
		c.hits.Add(1)
		c.st.Touch(key + entrySuffix) // best-effort recency bump
		return true, nil
	}

	if err := core.Accelerate(f, opts); err != nil {
		return false, err
	}
	c.misses.Add(1)
	// The population write is advisory: the translation already succeeded
	// and f carries its section, so a full or failing disk costs the next
	// caller a retranslation, never this caller its result.
	if err := c.Put(key, f); err != nil {
		c.putErrs.Add(1)
	}
	return false, nil
}

// Sweep removes crash debris (orphaned atomic-write temporaries) from the
// backing store; a restarting daemon runs it before serving. Stores without
// a sweep surface report 0.
func (c *Cache) Sweep() (int, error) { return store.Sweep(c.st) }

// GetVerified returns the stored accelerated codefile bytes for key after
// re-running every gate a fresh load gets: the strict v5 parser, an
// input-fingerprint recheck (when wantFP is nonzero), and structural
// AccelSection.Verify at the given code base. A miss returns (nil, false);
// an entry failing any gate is deleted, counted as a reject, and reported
// as a miss — the caller retranslates, never serves it.
func (c *Cache) GetVerified(key string, wantFP uint64, base uint32) ([]byte, bool) {
	data, err := c.st.Get(key + entrySuffix)
	if err != nil {
		return nil, false
	}
	if c.verifyEntry(data, wantFP, base) == nil {
		c.rejects.Add(1)
		c.st.Delete(key + entrySuffix)
		return nil, false
	}
	c.st.Touch(key + entrySuffix)
	return data, true
}

// getVerified is GetVerified returning the parsed file (for grafting).
func (c *Cache) getVerified(key string, wantFP uint64, base uint32) *codefile.File {
	data, err := c.st.Get(key + entrySuffix)
	if err != nil {
		return nil
	}
	cf := c.verifyEntry(data, wantFP, base)
	if cf == nil {
		c.rejects.Add(1)
		c.st.Delete(key + entrySuffix)
	}
	return cf
}

// verifyEntry runs a cached entry through the load gates. wantFP zero skips
// the fingerprint recheck (key-only lookups, where the entry's own content
// is the authority). Returns nil when any gate fails.
func (c *Cache) verifyEntry(data []byte, wantFP uint64, base uint32) *codefile.File {
	cf, err := codefile.Read(bytes.NewReader(data))
	if err != nil || cf.Accel == nil {
		return nil
	}
	if wantFP != 0 && cf.Fingerprint() != wantFP {
		return nil
	}
	if err := cf.Accel.Verify(cf, int(base)); err != nil {
		return nil
	}
	return cf
}

// Put persists an accelerated codefile under key and applies the size cap.
func (c *Cache) Put(key string, f *codefile.File) error {
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		return fmt.Errorf("tcache: %w", err)
	}
	if err := c.st.Put(key+entrySuffix, buf.Bytes()); err != nil {
		return fmt.Errorf("tcache: %w", err)
	}
	c.maybeEvict(key + entrySuffix)
	return nil
}

// maybeEvict enforces the size cap: while the stored total exceeds
// maxBytes, the least-recently-used entry (oldest ModTime; hits Touch
// theirs) other than the one just written is deleted. Eviction is pure
// capacity management — a future request for an evicted key misses and
// retranslates, it can never be served wrong code, and surviving entries
// still pass the full verify gate on every subsequent hit.
func (c *Cache) maybeEvict(keep string) {
	if c.maxBytes <= 0 {
		return
	}
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	ents, err := c.st.List()
	if err != nil {
		return
	}
	var total int64
	for _, e := range ents {
		total += e.Size
	}
	if total <= c.maxBytes {
		return
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].ModTime.Before(ents[j].ModTime) })
	for _, e := range ents {
		if total <= c.maxBytes {
			break
		}
		if e.Key == keep {
			continue
		}
		if c.st.Delete(e.Key) == nil {
			total -= e.Size
			c.evictions.Add(1)
		}
	}
}
