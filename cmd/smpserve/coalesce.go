package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"

	"smp"
	"smp/internal/mmapio"
)

// The coalescer manufactures the multi-query batching that /multiproject
// asks clients to do by hand: concurrent /project requests that target the
// same document — identified by content hash, so identity survives
// re-uploads, cache references and docroot files alike — are served by ONE
// MultiProject pass. The paper's reduction makes the scan the dominant cost
// and the scan is shareable across queries (smp.MultiPrefilter), so K
// uncoordinated requests for one hot document cost one scan plus K sparse
// replays instead of K scans. Batches form by group commit: a request whose
// key has no pass in flight starts one at once, and requests arriving during
// a pass join the batch the ending pass fires next.
//
// Correctness contract, inherited from MultiProject: every coalesced
// response is byte-identical to the response an uncoalesced run would have
// produced, per-query errors are isolated, and one client disconnecting
// abandons only its own wait — the batch runs to completion for its
// batchmates, and is cancelled only when every waiter is gone.

// coalescer groups concurrent same-document requests into batches.
type coalescer struct {
	srv      *server
	maxBatch int // a pending batch fires early, beside the running pass, at this many requests

	mu      sync.Mutex
	pending map[string]*coalesceBatch // key: dtdSource \x00 docHash; batches waiting for a pass to end
	running map[string]int            // passes in flight per key

	// beforePass, set only by tests, runs on the batch goroutine once a
	// pass is in flight (cancellable, about to scan), so a test can hold it.
	beforePass func(*coalesceBatch)
}

func newCoalescer(srv *server, maxBatch int) *coalescer {
	if maxBatch < 2 {
		maxBatch = 2
	}
	return &coalescer{srv: srv, maxBatch: maxBatch, pending: make(map[string]*coalesceBatch), running: make(map[string]int)}
}

// heldDoc is a document pinned in memory for the duration of a batch: body
// bytes under an admission reservation, a refcounted document-cache entry,
// or a memory-mapped docroot file. release is idempotent.
type heldDoc struct {
	data     []byte
	hash     string
	zeroCopy bool      // served from a mapping, not a heap buffer
	entry    *docEntry // non-nil for document-cache references: index serving
	once     sync.Once
	releaseF func()
}

func (d *heldDoc) release() {
	if d == nil {
		return
	}
	d.once.Do(func() {
		if d.releaseF != nil {
			d.releaseF()
		}
	})
}

// queryResult is the outcome of one distinct canonical spec within a batch.
// Waiters that asked for the same spec share it — the output bytes are
// written once and fanned out.
type queryResult struct {
	out        bytes.Buffer
	stats      smp.Stats
	err        error
	badRequest bool // compile/spec failure → 400, not 422
}

// coalesceBatch is one group of same-document requests.
type coalesceBatch struct {
	key       string
	dtdSource string
	doc       *heldDoc

	mu     sync.Mutex
	specs  []string // one element per waiter, in arrival order
	labels map[string]string
	live   int                // waiters still wanting the result
	cancel context.CancelFunc // set once the run starts

	done    chan struct{} // closed when results is complete
	results map[string]*queryResult
	size    int // final batch size, set before done closes
}

// join adds a request to its key's pending batch, creating the batch on
// first arrival. The batch takes ownership of doc if it is the first to
// bring it; otherwise doc is released immediately (its bytes are identical
// by hash). The batch fires at once when no pass for the key is in flight
// or when the join fills it to maxBatch.
func (c *coalescer) join(dtdSource string, doc *heldDoc, spec, label string) *coalesceBatch {
	key := dtdSource + "\x00" + doc.hash
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.pending[key]
	if b == nil {
		b = &coalesceBatch{
			key:       key,
			dtdSource: dtdSource,
			doc:       doc,
			labels:    make(map[string]string),
			done:      make(chan struct{}),
			results:   make(map[string]*queryResult),
		}
		c.pending[key] = b
	} else {
		doc.release()
	}
	b.mu.Lock()
	b.specs = append(b.specs, spec)
	if _, ok := b.labels[spec]; !ok {
		b.labels[spec] = label
	}
	b.live++
	full := len(b.specs) >= c.maxBatch
	b.mu.Unlock()
	if c.running[key] == 0 || full {
		delete(c.pending, key)
		c.running[key]++
		go c.fire(b) // on a batch goroutine: every waiter keeps its select
	}
	return b
}

// fire runs b and then, for as long as a batch formed behind the pass just
// ended, that batch too: the ending pass commits the next group.
func (c *coalescer) fire(b *coalesceBatch) {
	for b != nil {
		c.run(b)
		c.mu.Lock()
		next := c.pending[b.key]
		delete(c.pending, b.key)
		if next == nil {
			if c.running[b.key]--; c.running[b.key] == 0 {
				delete(c.running, b.key)
			}
		}
		c.mu.Unlock()
		b = next
	}
}

// abandon drops one waiter. When the last waiter is gone the batch run is
// cancelled — there is nobody left to deliver to.
func (b *coalesceBatch) abandon() {
	b.mu.Lock()
	b.live--
	if b.live == 0 && b.cancel != nil {
		b.cancel()
	}
	b.mu.Unlock()
}

// resultFor returns the shared result of a waiter's spec; only valid after
// done is closed.
func (b *coalesceBatch) resultFor(spec string) *queryResult { return b.results[spec] }

// run executes the batch: dedup the specs, resolve their prefilters through
// the LRU the standalone path uses, merge them (plan-sharing) into a
// MultiPrefilter, run one MultiProject pass over the pinned document, and
// publish per-spec results. Specs that fail to compile get per-spec errors;
// the rest still run. The pass executes under the batch's own context,
// cancelled only when every waiter has abandoned.
func (c *coalescer) run(b *coalesceBatch) {
	defer b.doc.release()
	defer close(b.done)

	b.mu.Lock()
	b.size = len(b.specs)
	if b.live == 0 {
		// Every waiter disconnected while the batch was pending: record
		// the batch but skip the scan.
		b.mu.Unlock()
		c.account(b.size, smp.Stats{})
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	b.cancel = cancel
	specs := b.specs
	b.mu.Unlock()
	defer cancel()
	if c.beforePass != nil {
		c.beforePass(b)
	}

	// Distinct specs, in first-arrival order. Requests naming the same
	// canonical spec share one query slot and one output buffer.
	unique := make([]string, 0, len(specs))
	for _, spec := range specs {
		if _, ok := b.results[spec]; ok {
			continue
		}
		b.results[spec] = &queryResult{}
		unique = append(unique, spec)
	}

	pfs := make([]*smp.Prefilter, 0, len(unique))
	slots := make([]string, 0, len(unique))
	for _, spec := range unique {
		pf, err := c.srv.cachedPrefilter(b.dtdSource, spec, b.labels[spec])
		if err != nil {
			res := b.results[spec]
			res.err, res.badRequest = err, true
			continue
		}
		pfs = append(pfs, pf)
		slots = append(slots, spec)
	}
	if len(pfs) == 0 {
		c.account(b.size, smp.Stats{})
		return
	}
	multi, err := smp.NewMultiPrefilter(pfs...)
	if err != nil {
		for _, spec := range slots {
			b.results[spec].err = err
		}
		c.account(b.size, smp.Stats{})
		return
	}

	dsts := make([]io.Writer, len(slots))
	for i, spec := range slots {
		dsts[i] = &b.results[spec].out
	}
	opts := []smp.ProjectOption{}
	docSize := int64(len(b.doc.data))
	if c.srv.intraWorkers > 1 && docSize >= c.srv.intraMin &&
		docSize >= int64(multi.MinParallelInput(c.srv.intraWorkers)) {
		opts = append(opts, smp.WithWorkers(c.srv.intraWorkers))
	}
	// A document-cache batch replays the document's candidate index when one
	// exists (or can be built) for this batch's union vocabulary: repeated
	// hot-document batches with the same query mix then skip the scan
	// entirely and still answer byte-identically.
	indexWanted := false
	if b.doc.entry != nil {
		indexWanted = true
		if ix := c.srv.docIndex(b.doc.entry, multi); ix != nil {
			opts = append(opts, smp.WithIndex(ix))
		}
	}
	var agg smp.Stats
	qstats, runErr := multi.MultiProject(ctx, dsts, bytes.NewReader(b.doc.data),
		append(opts, smp.WithStatsInto(&agg))...)
	if indexWanted && agg.IndexHits == 0 && agg.IndexSkips == 0 {
		agg.IndexSkips = 1 // at the per-document index cap: the batch scanned
	}
	for i, spec := range slots {
		b.results[spec].stats = qstats[i]
	}
	if runErr != nil {
		var merr *smp.MultiError
		if errors.As(runErr, &merr) {
			for i, spec := range slots {
				b.results[spec].err = merr.Errs[i]
			}
		} else {
			for _, spec := range slots {
				b.results[spec].err = runErr
			}
		}
	}
	c.account(b.size, agg)
}

// account records a completed batch: the size histogram, the batch count
// and the document bytes (scanned once per batch, however many requests it
// served) in one consistent update.
func (c *coalescer) account(size int, agg smp.Stats) {
	m := c.srv.metrics
	m.reg.Commit(func() {
		m.coalesceBatches.Observe(float64(size))
		m.bytesRead.Add(agg.BytesRead)
		m.indexHits.Add(agg.IndexHits)
		m.indexSkips.Add(agg.IndexSkips)
		m.indexSummarySkips.Add(agg.IndexSummarySkips)
	})
}

// serveCoalesced serves one /project request through the coalescer. It
// reports true when it fully handled the request (response written or
// client gone) and false when the request is not coalescable and should
// take the streaming path instead — e.g. a chunked or oversized body.
func (s *server) serveCoalesced(w http.ResponseWriter, r *http.Request, o *reqOutcome, dtdSource, canonical, label, docParam string) bool {
	held, handled := s.acquireCoalesceDoc(w, r, o, docParam)
	if handled {
		return true
	}
	if held == nil {
		return false
	}
	o.zeroCopy = held.zeroCopy
	b := s.coal.join(dtdSource, held, canonical, label)
	select {
	case <-r.Context().Done():
		// This client is gone; its batchmates keep running. abandon only
		// cancels the batch when no waiter is left.
		b.abandon()
		o.failed, o.cancelled = true, true
		return true
	case <-b.done:
	}
	o.coalesced = b.size > 1
	res := b.resultFor(canonical)
	if res.err != nil {
		// The outputs are buffered, so — unlike the streaming path — even a
		// mid-document failure gets a clean error response.
		code := http.StatusUnprocessableEntity
		if res.badRequest {
			code = http.StatusBadRequest
		}
		if errors.Is(res.err, context.Canceled) || errors.Is(res.err, context.DeadlineExceeded) {
			o.cancelled = true
		}
		s.failOutcome(w, o, code, res.err.Error())
		return true
	}
	h := w.Header()
	h.Set("Content-Type", "application/xml")
	h.Set("Content-Length", strconv.Itoa(res.out.Len()))
	h.Set("X-SMP-Coalesced-Batch", strconv.Itoa(b.size))
	setStatsHeaders(h, res.stats)
	n, _ := w.Write(res.out.Bytes())
	o.bytesWritten += int64(n)
	return true
}

// acquireCoalesceDoc pins the request's document in memory and computes its
// content hash — the coalescing identity. Three sources, in order of
// preference: a document-cache reference (doc=sha256:..., zero upload), a
// docroot file (memory-mapped and hashed in place via internal/mmapio), or
// the request body (buffered under the admission budget). It returns
// (nil, false) when the document cannot be pinned cheaply — unknown
// Content-Length, body over -coalescemaxbytes, unmappable oversized docroot
// file — and the caller falls back to streaming.
func (s *server) acquireCoalesceDoc(w http.ResponseWriter, r *http.Request, o *reqOutcome, docParam string) (*heldDoc, bool) {
	if docParam != "" {
		if hash, ok := parseDocRef(docParam); ok {
			if !s.docs.enabled() {
				s.failOutcome(w, o, http.StatusBadRequest, "doc="+hashScheme+":... requires the server to run with -doccache")
				return nil, true
			}
			e, ok := s.docs.get(hash)
			if !ok {
				s.failOutcome(w, o, http.StatusNotFound, "document "+formatETag(hash)+" not cached; upload it to /documents first")
				return nil, true
			}
			return &heldDoc{
				data:     e.data,
				hash:     hash,
				zeroCopy: e.mapping != nil,
				entry:    e,
				releaseF: func() { s.docs.release(e) },
			}, false
		}
		// A named docroot file: map and hash it in place.
		if s.docroot == "" {
			s.failOutcome(w, o, http.StatusBadRequest, "doc= requires the server to run with -docroot")
			return nil, true
		}
		f, err := s.openDoc(docParam)
		if err != nil {
			s.failOutcome(w, o, http.StatusNotFound, "document not found")
			return nil, true
		}
		if m, err := mmapio.Map(f); err == nil {
			f.Close()
			return &heldDoc{
				data:     m.Bytes(),
				hash:     hashBytes(m.Bytes()),
				zeroCopy: true,
				releaseF: func() { m.Close() },
			}, false
		}
		// Unmappable platform: buffer small files, stream the rest.
		if fi, err := f.Stat(); err == nil && fi.Size() <= s.coalesceMaxBytes && s.adm.reserve(fi.Size()) {
			data, err := io.ReadAll(f)
			f.Close()
			if err != nil {
				s.adm.release(fi.Size())
				s.failOutcome(w, o, http.StatusNotFound, "document not readable")
				return nil, true
			}
			size := fi.Size()
			return &heldDoc{
				data:     data,
				hash:     hashBytes(data),
				releaseF: func() { s.adm.release(size) },
			}, false
		}
		f.Close()
		return nil, false
	}

	// Request body: coalescing needs the bytes in memory to hash them, so
	// only bodies with a known, bounded Content-Length qualify; the rest
	// stream through the uncoalesced path with constant memory.
	size := r.ContentLength
	if size < 0 || size > s.coalesceMaxBytes {
		return nil, false
	}
	if !s.adm.reserve(size) {
		s.shedRequest(w, o)
		return nil, true
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		s.adm.release(size)
		o.failed, o.cancelled = true, true
		return nil, true // client aborted its own upload; nothing to answer
	}
	return &heldDoc{
		data:     data,
		hash:     hashBytes(data),
		releaseF: func() { s.adm.release(size) },
	}, false
}
