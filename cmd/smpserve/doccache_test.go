package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDocumentUploadAndProject exercises the content-addressed cache API:
// upload → ETag; re-upload → dedup; If-None-Match → 304 without a body
// read; project by doc=sha256:<hex> with an empty body; GET round-trip.
func TestDocumentUploadAndProject(t *testing.T) {
	srv, ts := docServer(t)

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
	srv, ts := docServer(t)
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

// TestDocUploadShortBodyCancelled sends an upload that declares more bytes
// than it delivers and then closes: the pre-sized read fails, the request
// counts as cancelled, the client gets no 201, and nothing is cached or
// left reserved.
func TestDocUploadShortBodyCancelled(t *testing.T) {
	srv, ts := docServer(t)
	answer := sendShortBody(t, ts, "/documents", len(auctionDoc), auctionDoc[:10])
	if strings.Contains(answer, "201") {
		t.Errorf("truncated upload was answered %q", answer)
	}
	waitFor(t, "the truncated upload to count as cancelled", func() bool {
		return srv.metrics.snapshot().Cancelled == 1
	})
	if st := srv.docs.stats(); st.Docs != 0 || st.Stores != 0 {
		t.Errorf("doc cache stats = %+v after a truncated upload, want no entry", st)
	}
	if buffered, _ := srv.adm.view(); buffered != 0 {
		t.Errorf("admission gauge stuck at %d bytes after a truncated upload", buffered)
	}
	c := srv.metrics.snapshot()
	if c.Requests != 1 || c.Failures != 1 {
		t.Errorf("requests = %d, failures = %d, want 1, 1", c.Requests, c.Failures)
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
// JSON and satisfy the cross-field invariants (cancelled <= failures <=
// requests) that field-by-field assembly used to violate.
func TestStatsConsistencyUnderHammer(t *testing.T) {
	srv, ts := docServer(t)

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
					doProject(t, ts, "//item/description#", "", auctionDoc)
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
		if st.Cancelled > st.Failures {
			t.Fatalf("inconsistent snapshot: cancelled %d > failures %d", st.Cancelled, st.Failures)
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
