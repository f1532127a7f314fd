package main

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"

	"smp"
	"smp/internal/mmapio"
)

// docCache is the content-addressed document store: documents keyed by
// their sha256 digest, held as read-only memory mappings of files in a
// spool directory so hot documents are scanned straight out of the page
// cache instead of re-uploaded — the byte cost of a cached hit is the scan
// itself, not the network or the Go heap. Where the platform cannot map
// (see internal/mmapio), entries degrade to plain heap copies; the cache
// works identically either way.
//
// Eviction is LRU by total bytes. An entry can be evicted while a request
// is still scanning it, so entries are refcounted: eviction marks the entry
// dead and the last release unmaps and deletes the spool file. Callers must
// pair every acquire (get/put) with exactly one release.
type docCache struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64 // total byte budget; <= 0 disables the cache

	order   *list.List // front = most recently used; values are *docEntry
	entries map[string]*list.Element
	total   int64

	hits, misses, stores, evictions int64
}

// docEntry is one cached document. data aliases the mapping when mapped,
// or is a private heap copy otherwise. indexes holds the document's
// candidate indexes, one per query-vocabulary fingerprint (guarded by the
// cache mutex, bounded by maxDocIndexes): scan the document once per
// vocabulary, replay the stored candidates on every later projection.
type docEntry struct {
	hash    string
	data    []byte
	mapping *mmapio.Mapping // nil for heap-backed entries
	path    string          // spool file; removed when the entry dies
	refs    int
	dead    bool
	indexes map[uint64]*smp.Index
}

// maxDocIndexes bounds the candidate indexes cached per document: one per
// distinct query-vocabulary fingerprint. Beyond the cap new vocabularies
// simply scan — bounded memory and spool-dir growth beat marginal hits.
const maxDocIndexes = 8

// docCacheStats is the /stats view of the document cache, taken in one cut
// under the cache lock.
type docCacheStats struct {
	Docs      int   `json:"docs"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Mapped    int   `json:"mapped"`
	Indexes   int   `json:"indexes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Stores    int64 `json:"stores"`
	Evictions int64 `json:"evictions"`
}

func newDocCache(dir string, maxBytes int64) *docCache {
	return &docCache{
		dir:      dir,
		maxBytes: maxBytes,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

func (dc *docCache) enabled() bool { return dc != nil && dc.maxBytes > 0 }

// hashBytes returns the canonical digest of a document.
func hashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// get acquires the cached document for a digest; the caller owns one
// reference and must release it. The entry's bytes stay valid until then,
// even if the entry is evicted in the meantime.
func (dc *docCache) get(hash string) (*docEntry, bool) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	el, ok := dc.entries[hash]
	if !ok {
		dc.misses++
		return nil, false
	}
	dc.hits++
	dc.order.MoveToFront(el)
	e := el.Value.(*docEntry)
	e.refs++
	return e, true
}

// put stores a document under its digest and acquires it for the caller
// (one release owed, same as get). Storing an already-cached digest is a
// hit: the existing entry is returned and the new bytes are dropped. The
// cache takes no ownership of data — it spools it to a file and maps that,
// or keeps a private copy where mapping is unsupported.
func (dc *docCache) put(hash string, data []byte) (*docEntry, error) {
	dc.mu.Lock()
	if el, ok := dc.entries[hash]; ok {
		dc.order.MoveToFront(el)
		e := el.Value.(*docEntry)
		e.refs++
		dc.hits++
		dc.mu.Unlock()
		return e, nil
	}
	dc.mu.Unlock()

	// Spool and map outside the lock: a slow disk must not stall readers.
	// Two concurrent uploads of the same content may both spool; the second
	// insert loses and destroys its spare below.
	e, err := dc.spool(hash, data)
	if err != nil {
		return nil, err
	}

	dc.mu.Lock()
	if el, ok := dc.entries[hash]; ok {
		existing := el.Value.(*docEntry)
		existing.refs++
		dc.order.MoveToFront(el)
		dc.hits++
		dc.mu.Unlock()
		e.destroy()
		return existing, nil
	}
	e.refs = 1
	dc.entries[hash] = dc.order.PushFront(e)
	dc.total += int64(len(e.data))
	dc.stores++
	victims := dc.evictLocked()
	dc.mu.Unlock()
	for _, v := range victims {
		v.destroy()
	}
	return e, nil
}

// spool writes the document to the cache directory and maps it read-only,
// falling back to a heap copy when the platform cannot map. The spool file
// is written to a temp name first and renamed, so a crashed upload never
// leaves a half-written document under a valid digest name.
func (dc *docCache) spool(hash string, data []byte) (*docEntry, error) {
	path := filepath.Join(dc.dir, hash+".xml")
	tmp, err := os.CreateTemp(dc.dir, "spool-*")
	if err != nil {
		return nil, fmt.Errorf("spooling document: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("spooling document: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("spooling document: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("spooling document: %w", err)
	}
	e := &docEntry{hash: hash, path: path}
	f, err := os.Open(path)
	if err == nil {
		m, merr := mmapio.Map(f)
		f.Close()
		if merr == nil {
			// Verify the mapping before anyone scans it: a spool file
			// truncated or corrupted underfoot (full disk, operator rm)
			// must fail the upload cleanly, never serve partial bytes.
			if len(m.Bytes()) == len(data) && hashBytes(m.Bytes()) == hash {
				e.mapping, e.data = m, m.Bytes()
				return e, nil
			}
			m.Close()
			os.Remove(path)
			return nil, fmt.Errorf("spooled document %s: content mismatch after spooling", hash[:12])
		}
	}
	// No mapping support (or the reopen failed): keep a private heap copy.
	e.data = append([]byte(nil), data...)
	return e, nil
}

// sidecarPath is where a document's candidate index for one vocabulary
// fingerprint persists: <hash>.<fp as 16 hex digits>.smpidx next to the
// spool file, so a warm restart finds both together.
func (dc *docCache) sidecarPath(hash string, fp uint64) string {
	return filepath.Join(dc.dir, fmt.Sprintf("%s.%016x%s", hash, fp, smp.IndexSidecarExt))
}

// index returns the cached candidate index of an entry for one vocabulary
// fingerprint, plus whether a miss may be admitted (the entry is alive and
// under its index cap).
func (dc *docCache) index(e *docEntry, fp uint64) (ix *smp.Index, admittable bool) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if ix, ok := e.indexes[fp]; ok {
		return ix, false
	}
	return nil, !e.dead && len(e.indexes) < maxDocIndexes
}

// admitIndex caches a candidate index on its entry. It reports false when
// the entry died or filled its cap in the meantime — the caller then serves
// this one run from ix and removes any sidecar it just wrote.
func (dc *docCache) admitIndex(e *docEntry, fp uint64, ix *smp.Index) bool {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if e.dead {
		return false
	}
	if _, ok := e.indexes[fp]; ok {
		return true // a concurrent builder won; both indexes are equivalent
	}
	if len(e.indexes) >= maxDocIndexes {
		return false
	}
	if e.indexes == nil {
		e.indexes = make(map[uint64]*smp.Index)
	}
	e.indexes[fp] = ix
	return true
}

// release drops one reference. The last release of a dead (evicted) entry
// unmaps and removes its spool file.
func (dc *docCache) release(e *docEntry) {
	if e == nil {
		return
	}
	dc.mu.Lock()
	e.refs--
	destroy := e.dead && e.refs == 0
	dc.mu.Unlock()
	if destroy {
		e.destroy()
	}
}

// evictLocked trims the cache to its byte budget, never evicting the most
// recently used entry (a single over-budget document still serves). Evicted
// entries still referenced by an in-flight scan are only marked dead — the
// last release destroys them; unreferenced victims are returned for the
// caller to destroy once the lock is dropped.
func (dc *docCache) evictLocked() (victims []*docEntry) {
	for dc.order.Len() > 1 && dc.total > dc.maxBytes {
		oldest := dc.order.Back()
		dc.order.Remove(oldest)
		e := oldest.Value.(*docEntry)
		delete(dc.entries, e.hash)
		dc.total -= int64(len(e.data))
		dc.evictions++
		e.dead = true
		if e.refs == 0 {
			victims = append(victims, e)
		}
	}
	return victims
}

// destroy unmaps the entry and removes its spool file plus every index
// sidecar persisted for it (named <hash>.<fp>.smpidx next to the spool
// file, so a glob finds sidecars from earlier processes too). Only called
// once: either by the losing inserter, by eviction (refs == 0), or by the
// last release of a dead entry.
func (e *docEntry) destroy() {
	if e.mapping != nil {
		e.mapping.Close()
		e.mapping = nil
	}
	e.data = nil
	e.indexes = nil
	if e.path != "" {
		os.Remove(e.path)
		if base, ok := strings.CutSuffix(e.path, ".xml"); ok {
			if sidecars, err := filepath.Glob(base + ".*" + smp.IndexSidecarExt); err == nil {
				for _, sc := range sidecars {
					os.Remove(sc)
				}
			}
		}
	}
}

// spoolDocName matches the spool file of one cached document: its sha256
// digest plus ".xml", exactly as spool names them.
var spoolDocName = regexp.MustCompile(`^[0-9a-f]{64}\.xml$`)

// warmRestart re-admits the documents a previous process spooled into a
// persistent cache directory: every <digest>.xml file whose content still
// hashes to its name is adopted in place (memory-mapped when possible) —
// its persisted index sidecars load lazily on the first projection that
// wants them, exactly as they were written. Files whose digest no longer
// matches (truncated, mutated underfoot) are removed along with their
// sidecars, as are sidecars whose document is gone: the directory again
// holds only verified content-addressed state. Returns the number of
// documents restored. Call before serving; warmRestart takes the cache
// lock per insertion but verification runs unlocked.
func (dc *docCache) warmRestart() (restored int) {
	dirents, err := os.ReadDir(dc.dir)
	if err != nil {
		return 0
	}
	valid := make(map[string]bool)
	for _, de := range dirents {
		name := de.Name()
		if !de.Type().IsRegular() || !spoolDocName.MatchString(name) {
			continue
		}
		hash := strings.TrimSuffix(name, ".xml")
		path := filepath.Join(dc.dir, name)
		e, ok := dc.adopt(hash, path)
		if !ok {
			e = &docEntry{hash: hash, path: path}
			e.destroy() // digest mismatch: drop the file and its sidecars
			continue
		}
		valid[hash] = true
		dc.mu.Lock()
		if _, dup := dc.entries[hash]; dup {
			dc.mu.Unlock()
			e.path = "" // the live entry owns the spool file
			e.destroy()
			continue
		}
		dc.entries[hash] = dc.order.PushBack(e) // restored docs start cold
		dc.total += int64(len(e.data))
		dc.stores++
		restored++
		victims := dc.evictLocked()
		dc.mu.Unlock()
		for _, v := range victims {
			if v.hash != "" {
				delete(valid, v.hash)
			}
			v.destroy()
			if v == e {
				restored--
			}
		}
	}
	// Orphaned sidecars — their document was removed, evicted or never
	// verified — would otherwise accumulate across restarts.
	for _, de := range dirents {
		name := de.Name()
		if !strings.HasSuffix(name, smp.IndexSidecarExt) {
			continue
		}
		if hash, _, ok := strings.Cut(name, "."); !ok || !valid[hash] {
			os.Remove(filepath.Join(dc.dir, name))
		}
	}
	return restored
}

// adopt builds a docEntry over an existing spool file, verifying that its
// bytes still hash to the expected digest (mapped in place when possible, a
// heap copy otherwise — the same degradation spool applies).
func (dc *docCache) adopt(hash, path string) (*docEntry, bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	e := &docEntry{hash: hash, path: path}
	if m, err := mmapio.Map(f); err == nil {
		f.Close()
		if hashBytes(m.Bytes()) != hash {
			m.Close()
			return nil, false
		}
		e.mapping, e.data = m, m.Bytes()
		return e, true
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil || hashBytes(data) != hash {
		return nil, false
	}
	e.data = data
	return e, true
}

// stats returns one consistent cut of the cache counters.
func (dc *docCache) stats() docCacheStats {
	if dc == nil {
		return docCacheStats{}
	}
	dc.mu.Lock()
	defer dc.mu.Unlock()
	st := docCacheStats{
		Docs:      dc.order.Len(),
		Bytes:     dc.total,
		MaxBytes:  dc.maxBytes,
		Hits:      dc.hits,
		Misses:    dc.misses,
		Stores:    dc.stores,
		Evictions: dc.evictions,
	}
	for el := dc.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*docEntry)
		if e.mapping != nil {
			st.Mapped++
		}
		st.Indexes += len(e.indexes)
	}
	return st
}

// docIndex resolves the candidate index serving one (cached document,
// query vocabulary) pair: the entry's in-memory map first, then a sidecar
// persisted in the spool directory (by this process or a previous one — the
// -doccachedir warm-restart path), and finally a fresh build, persisted and
// admitted for every later projection. Returns nil when the entry is at its
// index cap (the run then scans; the caller counts an index skip). The
// caller must hold a reference on e for the duration.
func (s *server) docIndex(e *docEntry, pf *smp.Prefilter) *smp.Index {
	fp := pf.VocabularyFingerprint()
	ix, admittable := s.docs.index(e, fp)
	if ix != nil {
		return ix
	}
	if !admittable {
		return nil
	}
	path := s.docs.sidecarPath(e.hash, fp)
	if loaded, err := smp.ReadIndex(path); err == nil &&
		loaded.Bind(e.data) == nil && pf.IndexCovers(loaded) {
		// A decoded sidecar that fails any check — corrupt bytes, content
		// mismatch, foreign vocabulary — falls through to a rebuild, which
		// atomically replaces it.
		if s.docs.admitIndex(e, fp, loaded) {
			return loaded
		}
		return loaded // entry died or filled up mid-load: serve this run only
	}
	ix = pf.BuildIndex(e.data)
	persisted := ix.WriteFile(path) == nil
	if !s.docs.admitIndex(e, fp, ix) && persisted {
		os.Remove(path) // the entry died underfoot; don't leak the sidecar
	}
	return ix
}

// admission is the in-flight byte budget: every request that buffers its
// body (bounded /project bodies, /documents uploads) reserves the bytes
// first and releases them when the buffer dies. When the budget is exhausted the
// request is shed with 429 + Retry-After instead of growing the heap — the
// server degrades by refusing work it cannot hold, never by falling over.
type admission struct {
	mu       sync.Mutex
	max      int64 // <= 0: unlimited
	reserved int64
	shed     int64
}

// reserve claims n buffered bytes; it reports false (and counts a shed
// request) when the claim would exceed the budget.
func (a *admission) reserve(n int64) bool {
	if a.max <= 0 {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.reserved+n > a.max {
		a.shed++
		return false
	}
	a.reserved += n
	return true
}

// release returns n reserved bytes to the budget.
func (a *admission) release(n int64) {
	if a.max <= 0 {
		return
	}
	a.mu.Lock()
	a.reserved -= n
	a.mu.Unlock()
}

// view returns the current gauge and shed count in one cut.
func (a *admission) view() (reserved, shed int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reserved, a.shed
}
