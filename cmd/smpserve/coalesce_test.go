package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"smp"
)

// coalescingServer builds a test server with the coalescer, the document
// cache and the admission budget all enabled; a pending batch fires early at
// maxBatch.
func coalescingServer(t *testing.T, maxBatch int) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(16, 0, smp.Options{})
	srv.coal = newCoalescer(srv, maxBatch)
	srv.docs = newDocCache(t.TempDir(), 64<<20)
	srv.adm.max = 64 << 20
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return srv, ts
}

func projectURL(ts *httptest.Server, spec string, extra string) string {
	u := ts.URL + "/project?paths=" + url.QueryEscape(spec)
	if extra != "" {
		u += "&" + extra
	}
	return u
}

func doProject(t *testing.T, ts *httptest.Server, spec, extra, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, projectURL(ts, spec, extra), strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-SMP-DTD", url.PathEscape(auctionDTD))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// projectResult is the outcome of a /project request sent by startProject.
type projectResult struct {
	code  int
	batch string // X-SMP-Coalesced-Batch
	body  string
	err   error // transport error (e.g. the client cancelled)
}

// startProject sends a /project request on its own goroutine and delivers
// the outcome on the returned channel; it never calls t.Fatal, so it is safe
// off the test goroutine.
func startProject(ctx context.Context, ts *httptest.Server, spec, body string) <-chan projectResult {
	res := make(chan projectResult, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, projectURL(ts, spec, ""), strings.NewReader(body))
		if err != nil {
			res <- projectResult{err: err}
			return
		}
		req.Header.Set("X-SMP-DTD", url.PathEscape(auctionDTD))
		resp, err := ts.Client().Do(req)
		if err != nil {
			res <- projectResult{err: err}
			return
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		res <- projectResult{resp.StatusCode, resp.Header.Get("X-SMP-Coalesced-Batch"), string(out), err}
	}()
	return res
}

// await receives a startProject outcome, failing t if none arrives in time.
func await(t *testing.T, res <-chan projectResult) projectResult {
	t.Helper()
	select {
	case r := <-res:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a /project response")
		return projectResult{}
	}
}

// passGate holds the coalescer's passes in flight: every pass reports its
// batch on started and then blocks until release frees all passes, held
// and future. The tests line requests up against a held pass instead of
// against wall-clock timing.
type passGate struct {
	started chan *coalesceBatch
	proceed chan struct{}
	once    sync.Once
}

func holdPasses(t *testing.T, srv *server) *passGate {
	// started holds more passes than any test starts, so reporting a pass
	// never blocks the pass itself.
	g := &passGate{started: make(chan *coalesceBatch, 64), proceed: make(chan struct{})}
	srv.coal.beforePass = func(b *coalesceBatch) {
		g.started <- b
		<-g.proceed
	}
	// Registered after the server's own cleanup, so it runs first: a pass a
	// failed test left held cannot block the server shutdown.
	t.Cleanup(g.release)
	return g
}

func (g *passGate) release() { g.once.Do(func() { close(g.proceed) }) }

// next returns the batch of the next pass to start.
func (g *passGate) next(t *testing.T) *coalesceBatch {
	t.Helper()
	select {
	case b := <-g.started:
		return b
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a coalesced pass to start")
		return nil
	}
}

// pendingWaiters reports how many requests joined the batches waiting
// behind in-flight passes, and how many of them still wait.
func pendingWaiters(c *coalescer) (joined, live int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range c.pending {
		b.mu.Lock()
		joined, live = joined+len(b.specs), live+b.live
		b.mu.Unlock()
	}
	return joined, live
}

// waitJoined waits until n requests wait in pending batches.
func waitJoined(t *testing.T, c *coalescer, n int) {
	t.Helper()
	waitFor(t, strconv.Itoa(n)+" requests to join a pending batch", func() bool {
		joined, _ := pendingWaiters(c)
		return joined == n
	})
}

// referenceOutputs projects doc through the standalone library path once
// per spec: the bytes every coalesced response must reproduce.
func referenceOutputs(t *testing.T, doc string, specs ...string) map[string]string {
	t.Helper()
	want := make(map[string]string)
	for _, spec := range specs {
		pf, err := smp.Compile(auctionDTD, spec, smp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := pf.Project(context.Background(), &buf, strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
		want[spec] = buf.String()
	}
	return want
}

// checkResult fails t unless r is a 200 carrying want in a batch of size
// batch.
func checkResult(t *testing.T, what string, r projectResult, batch int, want string) {
	t.Helper()
	switch {
	case r.err != nil:
		t.Errorf("%s: %v", what, r.err)
	case r.code != http.StatusOK:
		t.Errorf("%s: status %d: %s", what, r.code, r.body)
	case r.batch != strconv.Itoa(batch):
		t.Errorf("%s: X-SMP-Coalesced-Batch %q, want %d", what, r.batch, batch)
	case r.body != want:
		t.Errorf("%s: coalesced output diverges:\n got %q\nwant %q", what, r.body, want)
	}
}

// keyCount reports how many keys have group-commit state: a pass in flight
// or a batch pending.
func keyCount(c *coalescer) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending) + len(c.running)
}

// TestGroupCommitLoneRequest checks that a request with no company runs at
// once as a batch of one, and leaves no key state behind: there is no timer
// to wait out and nothing to clean up.
func TestGroupCommitLoneRequest(t *testing.T) {
	srv, ts := coalescingServer(t, 64)
	var passes []int
	var mu sync.Mutex
	srv.coal.beforePass = func(b *coalesceBatch) {
		mu.Lock()
		passes = append(passes, b.size)
		mu.Unlock()
	}
	spec := "/*, //australia//name#"
	want := referenceOutputs(t, auctionDoc, spec)
	for round := 0; round < 3; round++ {
		r := await(t, startProject(context.Background(), ts, spec, auctionDoc))
		checkResult(t, "lone request", r, 1, want[spec])
		// The batch goroutine drops the key state just after it delivers.
		waitFor(t, "the key state to go after round "+strconv.Itoa(round), func() bool { return keyCount(srv.coal) == 0 })
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(passes) != "[1 1 1]" {
		t.Errorf("pass sizes %v, want three passes of one request", passes)
	}
}

// TestCoalescingByteIdentity lines a burst of same-document requests up
// behind a held pass and checks that (a) they share exactly one follow-up
// pass — X-SMP-Coalesced-Batch: N on every response — and (b) every response
// is byte-identical to the standalone Project output for its path set: the
// core contract.
func TestCoalescingByteIdentity(t *testing.T) {
	srv, ts := coalescingServer(t, 64)
	gate := holdPasses(t, srv)
	specs := []string{
		"/*, //australia//name#",
		"//item/description#",
		"/*, //australia//name#", // duplicate of spec 0: shares a query slot
		"//regions//location#",
	}
	want := referenceOutputs(t, auctionDoc, specs...)

	holder := startProject(context.Background(), ts, specs[1], auctionDoc)
	if b := gate.next(t); b.size != 1 {
		t.Fatalf("first pass has %d requests, want 1", b.size)
	}
	const perSpec = 4
	n := len(specs) * perSpec
	var results []<-chan projectResult
	for _, spec := range specs {
		for i := 0; i < perSpec; i++ {
			results = append(results, startProject(context.Background(), ts, spec, auctionDoc))
		}
	}
	waitJoined(t, srv.coal, n)
	gate.release()

	checkResult(t, "held request", await(t, holder), 1, want[specs[1]])
	for i, res := range results {
		spec := specs[i/perSpec]
		checkResult(t, "spec "+spec, await(t, res), n, want[spec])
	}
	if b := gate.next(t); b.size != n {
		t.Errorf("follow-up pass has %d requests, want %d", b.size, n)
	}
	if extra := len(gate.started); extra != 0 {
		t.Errorf("%d passes beyond the held one and its follow-up", extra)
	}

	waitFor(t, "every request to commit", func() bool { return srv.metrics.snapshot().Requests == int64(n+1) })
	c := srv.metrics.snapshot()
	if c.CoalesceBatches != 2 || c.CoalescedRequests != int64(n) {
		t.Errorf("coalesce_batches %d, coalesced_requests %d; want 2 and %d", c.CoalesceBatches, c.CoalescedRequests, n)
	}
	var histSum int64
	for _, n := range c.BatchHist {
		histSum += n
	}
	if histSum != c.CoalesceBatches {
		t.Errorf("batch histogram sums to %d, want CoalesceBatches = %d", histSum, c.CoalesceBatches)
	}
	waitFor(t, "the key state to go", func() bool { return keyCount(srv.coal) == 0 })
}

// TestGroupCommitMaxBatchFiresBeside fills the pending batch to -coalescemax
// while the first pass is held: the full batch starts a second pass beside
// it instead of waiting.
func TestGroupCommitMaxBatchFiresBeside(t *testing.T) {
	const maxBatch = 4
	srv, ts := coalescingServer(t, maxBatch)
	gate := holdPasses(t, srv)
	spec := "//item/description#"
	want := referenceOutputs(t, auctionDoc, spec)

	holder := startProject(context.Background(), ts, spec, auctionDoc)
	first := gate.next(t)
	var results []<-chan projectResult
	for i := 0; i < maxBatch; i++ {
		results = append(results, startProject(context.Background(), ts, spec, auctionDoc))
	}
	second := gate.next(t) // starts while first is still held
	if first.size != 1 || second.size != maxBatch {
		t.Errorf("pass sizes %d and %d, want 1 and %d", first.size, second.size, maxBatch)
	}
	srv.coal.mu.Lock()
	running, pending := srv.coal.running[first.key], srv.coal.pending[first.key]
	srv.coal.mu.Unlock()
	if running != 2 || pending != nil {
		t.Errorf("key state running=%d pending=%v, want two passes and no pending batch", running, pending)
	}
	gate.release()
	checkResult(t, "held request", await(t, holder), 1, want[spec])
	for _, res := range results {
		checkResult(t, "full batch", await(t, res), maxBatch, want[spec])
	}
}

// TestCoalescingOptOut checks that ?coalesce=off bypasses the coalescer —
// the knob the load harness uses to compare on/off against one server.
func TestCoalescingOptOut(t *testing.T) {
	srv, ts := coalescingServer(t, 64)
	resp, out := doProject(t, ts, "/*, //australia//name#", "coalesce=off", auctionDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-SMP-Coalesced-Batch"); got != "" {
		t.Errorf("coalesce=off still went through the coalescer (batch header %q)", got)
	}
	if c := srv.metrics.snapshot(); c.CoalesceBatches != 0 {
		t.Errorf("CoalesceBatches = %d after an opted-out request, want 0", c.CoalesceBatches)
	}
}

// TestCoalescedErrorIsolation sends a syntactically-broken request (its
// spec does not parse) while a healthy same-document request waits behind a
// held pass: the broken one gets its clean 400, the healthy one gets its
// bytes. A non-conforming document, in turn, is its own key and its own
// pass, answered cleanly without disturbing the other document's batches.
func TestCoalescedErrorIsolation(t *testing.T) {
	srv, ts := coalescingServer(t, 64)
	gate := holdPasses(t, srv)
	spec := "/*, //australia//name#"
	want := referenceOutputs(t, auctionDoc, spec)

	holder := startProject(context.Background(), ts, spec, auctionDoc)
	gate.next(t)
	healthy := startProject(context.Background(), ts, spec, auctionDoc)
	broken := await(t, startProject(context.Background(), ts, "//item[", auctionDoc))
	if broken.code != http.StatusBadRequest {
		t.Errorf("unparseable spec got status %d, want 400", broken.code)
	}
	// A document that does not conform to the DTD: the prefilter is
	// content-lenient (it filters, it does not validate), so this is a
	// clean 200 with an empty projection — identical to the standalone
	// path — not a failure that could poison a batch.
	bogus := startProject(context.Background(), ts, "//item/description#", "<bogus><not_in_dtd/></bogus>")
	gate.next(t) // the bogus document's pass: a key of its own
	waitJoined(t, srv.coal, 1)
	gate.release()

	checkResult(t, "held request", await(t, holder), 1, want[spec])
	checkResult(t, "healthy batchmate", await(t, healthy), 1, want[spec])
	checkResult(t, "non-conforming document", await(t, bogus), 1, "")
}

// TestCoalescedCancellation checks that one client disconnecting while its
// batch is pending does not fail its batchmate: the batch still runs, with
// the survivor, and the leaver counts as cancelled.
func TestCoalescedCancellation(t *testing.T) {
	srv, ts := coalescingServer(t, 64)
	gate := holdPasses(t, srv)
	spec := "//item/description#"
	want := referenceOutputs(t, auctionDoc, spec)

	holder := startProject(context.Background(), ts, spec, auctionDoc)
	gate.next(t)
	ctx, cancel := context.WithCancel(context.Background())
	gone := startProject(ctx, ts, spec, auctionDoc)
	survivor := startProject(context.Background(), ts, spec, auctionDoc)
	waitJoined(t, srv.coal, 2)
	cancel() // first batchmate disconnects
	if r := await(t, gone); r.err == nil {
		t.Errorf("cancelled request returned status %d", r.code)
	}
	waitFor(t, "the disconnected waiter to count as cancelled", func() bool {
		return srv.metrics.snapshot().Cancelled == 1
	})
	gate.release()

	checkResult(t, "held request", await(t, holder), 1, want[spec])
	r := await(t, survivor)
	checkResult(t, "surviving batchmate", r, 2, want[spec])
	if !strings.Contains(r.body, "Palm Zire 71") {
		t.Errorf("surviving batchmate output %q misses its match", r.body)
	}
}

// TestGroupCommitAbandonedBatchSkipsScan disconnects every waiter of a
// pending batch: the batch never scans, its waiters count as cancelled, and
// it still counts as one batch in /stats and /metrics alike.
func TestGroupCommitAbandonedBatchSkipsScan(t *testing.T) {
	srv, ts := coalescingServer(t, 64)
	gate := holdPasses(t, srv)
	spec := "//item/description#"
	want := referenceOutputs(t, auctionDoc, spec)

	holder := startProject(context.Background(), ts, spec, auctionDoc)
	gate.next(t)
	ctx, cancel := context.WithCancel(context.Background())
	leavers := []<-chan projectResult{
		startProject(ctx, ts, spec, auctionDoc),
		startProject(ctx, ts, "/*, //australia//name#", auctionDoc),
	}
	waitJoined(t, srv.coal, 2)
	cancel()
	for _, res := range leavers {
		await(t, res)
	}
	waitFor(t, "both waiters to leave the pending batch", func() bool {
		_, live := pendingWaiters(srv.coal)
		return live == 0 && srv.metrics.snapshot().Cancelled == 2
	})
	gate.release()
	checkResult(t, "held request", await(t, holder), 1, want[spec])

	waitFor(t, "the abandoned batch to be accounted", func() bool {
		return srv.metrics.snapshot().CoalesceBatches == 2 && keyCount(srv.coal) == 0
	})
	if extra := len(gate.started); extra != 0 {
		t.Errorf("the abandoned batch started %d passes, want none", extra)
	}
	c := srv.metrics.snapshot()
	if c.BytesRead != int64(len(auctionDoc)) {
		t.Errorf("bytes_read = %d, want %d (one scan, by the held pass)", c.BytesRead, len(auctionDoc))
	}
	st, m := serverStats(t, ts), scrapeMetrics(t, ts)
	if st.CoalesceBatches != 2 || m["smpserve_coalesce_batch_size_count"] != 2 {
		t.Errorf("batches: /stats %d, /metrics %v; want 2 in both", st.CoalesceBatches, m["smpserve_coalesce_batch_size_count"])
	}
}

// TestCoalescerSoak is the -race soak: hundreds of goroutines mixing
// identical-document, distinct-document, cancelled and malformed requests
// against one coalescing server. Every successful response must be
// byte-identical to the standalone Project output for its (document, spec)
// pair, and the server must unwind to its goroutine baseline afterwards.
func TestCoalescerSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	srv, ts := coalescingServer(t, 8)

	// A couple of distinct documents (different content hashes) plus specs.
	docs := []string{
		auctionDoc,
		`<site><regions><africa><item><location>Ghana</location><name>Lamp</name><payment>Cash</payment><description>Brass lamp</description><shipping/><incategory category="7"/></item></africa><asia/><australia/></regions></site>`,
	}
	specs := []string{
		"/*, //australia//name#",
		"//item/description#",
		"//regions//location#",
	}
	want := make(map[string]string) // doc \x00 spec -> reference output
	for _, doc := range docs {
		for spec, out := range referenceOutputs(t, doc, specs...) {
			want[doc+"\x00"+spec] = out
		}
	}

	before := runtime.NumGoroutine()

	const workers = 24
	const perWorker = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				doc := docs[rng.Intn(len(docs))]
				spec := specs[rng.Intn(len(specs))]
				switch rng.Intn(5) {
				case 0: // cancelled mid-wait
					ctx, cancel := context.WithCancel(context.Background())
					req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
						projectURL(ts, spec, ""), strings.NewReader(doc))
					req.Header.Set("X-SMP-DTD", url.PathEscape(auctionDTD))
					// Draw the delay here: rng belongs to this goroutine.
					delay := time.Duration(rng.Intn(3)) * time.Millisecond
					go func() {
						time.Sleep(delay)
						cancel()
					}()
					resp, err := ts.Client().Do(req)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				case 1: // malformed: unparseable spec → clean 400
					resp, _ := doProject(t, ts, "//item[", "", doc)
					if resp.StatusCode != http.StatusBadRequest {
						errs <- fmt.Errorf("malformed spec got status %d, want 400", resp.StatusCode)
					}
				default: // healthy request; verify byte identity
					resp, out := doProject(t, ts, spec, "", doc)
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("status %d: %s", resp.StatusCode, out)
						continue
					}
					if string(out) != want[doc+"\x00"+spec] {
						errs <- fmt.Errorf("coalesced output diverges for spec %q", spec)
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// All batches unwound: no leaked batch goroutines or key state, no stuck
	// admission reservations, a histogram consistent with the batch count.
	// Idle keep-alive connections (two goroutines per conn) are closed
	// first so the count can actually return to the baseline.
	ts.Client().CloseIdleConnections()
	waitGoroutines(t, before)
	if n := keyCount(srv.coal); n != 0 {
		t.Errorf("%d keys keep group-commit state after the soak", n)
	}
	if buffered, _ := srv.adm.view(); buffered != 0 {
		t.Errorf("admission gauge stuck at %d bytes after the soak", buffered)
	}
	c := srv.metrics.snapshot()
	var histSum int64
	for _, n := range c.BatchHist {
		histSum += n
	}
	if histSum != c.CoalesceBatches {
		t.Errorf("batch histogram sums to %d, want CoalesceBatches = %d", histSum, c.CoalesceBatches)
	}
	if c.InFlight != 0 {
		t.Errorf("InFlight gauge stuck at %d after the soak", c.InFlight)
	}
}

// waitGoroutines retries until the goroutine count drops back to the
// baseline (batch runners and HTTP keep-alives unwind asynchronously).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDocumentUploadAndProject exercises the content-addressed cache API:
// upload → ETag; re-upload → dedup; If-None-Match → 304 without a body
// read; project by doc=sha256:<hex> with an empty body; GET round-trip.
func TestDocumentUploadAndProject(t *testing.T) {
	srv, ts := coalescingServer(t, 8)

	post := func(body string, hdr map[string]string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/documents", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	resp := post(auctionDoc, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d, want 201", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	hash, ok := parseDocRef(etag)
	if !ok {
		t.Fatalf("upload ETag %q does not parse as a document reference", etag)
	}
	if want := hashBytes([]byte(auctionDoc)); hash != want {
		t.Fatalf("upload ETag digest = %s, want %s", hash, want)
	}

	// Conditional re-upload: the body must not even be read.
	resp = post("ignored body", map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional re-upload status %d, want 304", resp.StatusCode)
	}

	// Project the cached document with an empty body.
	projResp, out := doProject(t, ts, "/*, //australia//name#", "doc="+url.QueryEscape(hashScheme+":"+hash), "")
	if projResp.StatusCode != http.StatusOK {
		t.Fatalf("doc= projection status %d: %s", projResp.StatusCode, out)
	}
	if !strings.Contains(string(out), "<name>PDA</name>") {
		t.Errorf("doc= projection %q misses the item name", out)
	}

	// GET round-trip with ETag and 304.
	getResp, err := ts.Client().Get(ts.URL + "/documents/" + hashScheme + ":" + hash)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK || string(body) != auctionDoc {
		t.Fatalf("GET /documents status %d, body mismatch %v", getResp.StatusCode, string(body) != auctionDoc)
	}

	// Unknown digest → 404 with a hint.
	bogus := strings.Repeat("0", hashHexLen)
	missResp, out := doProject(t, ts, "/*", "doc="+url.QueryEscape(hashScheme+":"+bogus), "")
	if missResp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown digest status %d, want 404: %s", missResp.StatusCode, out)
	}

	if st := srv.docs.stats(); st.Docs != 1 || st.Stores != 1 {
		t.Errorf("doc cache stats = %+v, want 1 doc / 1 store", st)
	}
}

// TestAdmissionShedding drains the buffered-byte budget and checks the
// 429 + Retry-After answer, the shed counter, and recovery after release.
func TestAdmissionShedding(t *testing.T) {
	srv, ts := coalescingServer(t, 8)
	srv.adm.max = 16 // tiny budget: any real document overflows it

	resp, out := doProject(t, ts, "/*, //australia//name#", "", auctionDoc)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget request status %d, want 429: %s", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if _, shed := srv.adm.view(); shed != 1 {
		t.Errorf("shed count = %d, want 1", shed)
	}
	// The budget is free again: a document under the limit goes through.
	srv.adm.max = 64 << 20
	resp, out = doProject(t, ts, "/*, //australia//name#", "", auctionDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery request status %d: %s", resp.StatusCode, out)
	}
}

// TestDocCacheEviction fills the cache past its byte budget and checks LRU
// eviction, the eviction counter, and that an evicted digest answers 404.
func TestDocCacheEviction(t *testing.T) {
	dc := newDocCache(t.TempDir(), 64)
	a := bytes.Repeat([]byte("a"), 40)
	b := bytes.Repeat([]byte("b"), 40)

	ea, err := dc.put(hashBytes(a), a)
	if err != nil {
		t.Fatal(err)
	}
	dc.release(ea)
	eb, err := dc.put(hashBytes(b), b)
	if err != nil {
		t.Fatal(err)
	}
	dc.release(eb)

	if _, ok := dc.get(hashBytes(a)); ok {
		t.Error("oldest entry survived an over-budget insert")
	}
	e, ok := dc.get(hashBytes(b))
	if !ok {
		t.Fatal("newest entry was evicted")
	}
	if !bytes.Equal(e.data, b) {
		t.Error("cached bytes corrupted")
	}
	dc.release(e)
	if st := dc.stats(); st.Evictions != 1 || st.Docs != 1 {
		t.Errorf("stats = %+v, want 1 eviction / 1 doc", st)
	}
}

// TestDocCacheEvictionWhileReferenced evicts an entry that a reader still
// holds: the bytes must stay valid until the last release, and the spool
// file must be gone afterwards.
func TestDocCacheEvictionWhileReferenced(t *testing.T) {
	dir := t.TempDir()
	dc := newDocCache(dir, 64)
	a := bytes.Repeat([]byte("a"), 40)
	b := bytes.Repeat([]byte("b"), 40)

	ea, err := dc.put(hashBytes(a), a)
	if err != nil {
		t.Fatal(err)
	}
	// Keep ea referenced while b evicts it.
	eb, err := dc.put(hashBytes(b), b)
	if err != nil {
		t.Fatal(err)
	}
	dc.release(eb)

	if !bytes.Equal(ea.data, a) {
		t.Fatal("evicted-but-referenced entry no longer serves its bytes")
	}
	dc.release(ea) // last release destroys

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if filepath.Ext(de.Name()) == ".xml" && strings.HasPrefix(de.Name(), hashBytes(a)) {
			t.Errorf("spool file %s survived the last release of a dead entry", de.Name())
		}
	}
}

// TestStatsConsistencyUnderHammer mutates the counters from many goroutines
// while /stats is polled concurrently: every snapshot must round-trip as
// JSON and satisfy the cross-field invariants (failures <= requests,
// histogram sums to the batch count) that field-by-field assembly used to
// violate.
func TestStatsConsistencyUnderHammer(t *testing.T) {
	srv, ts := coalescingServer(t, 4)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					doProject(t, ts, "/*, //australia//name#", "", auctionDoc)
				case 1:
					doProject(t, ts, "//bad_spec#", "", auctionDoc)
				default:
					doProject(t, ts, "//item/description#", "coalesce=off", auctionDoc)
				}
			}
		}(w)
	}

	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		resp, err := ts.Client().Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st statsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("/stats did not round-trip as JSON: %v", err)
		}
		resp.Body.Close()
		if st.Failures > st.Requests {
			t.Fatalf("inconsistent snapshot: failures %d > requests %d", st.Failures, st.Requests)
		}
		if st.CoalescedRequests > st.Requests {
			t.Fatalf("inconsistent snapshot: coalesced %d > requests %d", st.CoalescedRequests, st.Requests)
		}
		var histSum int64
		for _, n := range st.CoalesceBatchHist {
			histSum += n
		}
		if histSum != st.CoalesceBatches {
			t.Fatalf("inconsistent snapshot: histogram sums to %d, batches %d", histSum, st.CoalesceBatches)
		}
		if st.RequestsInFlight < 0 {
			t.Fatalf("negative in-flight gauge %d", st.RequestsInFlight)
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: the gauge must return to zero.
	c := srv.metrics.snapshot()
	if c.InFlight != 0 {
		t.Errorf("InFlight = %d after quiescing, want 0", c.InFlight)
	}
}
