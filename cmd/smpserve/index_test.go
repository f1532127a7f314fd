package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"smp"
)

// uploadDoc uploads a document and returns its digest.
func uploadDoc(t *testing.T, ts *httptest.Server, doc string) string {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/documents", "application/xml", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d, want 201", resp.StatusCode)
	}
	hash, ok := parseDocRef(resp.Header.Get("ETag"))
	if !ok {
		t.Fatalf("upload ETag %q does not parse", resp.Header.Get("ETag"))
	}
	return hash
}

func serverStats(t *testing.T, ts *httptest.Server) statsResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDocIndexServesRepeatedProjections checks the lazy index path end to
// end: the first ?doc= projection for a vocabulary builds and persists its
// sidecar, every later one replays it — byte-identical to the scan, answered
// with Content-Length and X-SMP-* headers, and counted exactly as
// index_hits in /stats, one per projection.
func TestDocIndexServesRepeatedProjections(t *testing.T) {
	srv, ts := docServer(t)
	hash := uploadDoc(t, ts, auctionDoc)

	specs := []string{"/*, //australia//description#", "/*, //australia//name#"}
	want := referenceOutputs(t, auctionDoc, specs...)
	const rounds = 3
	for round := 0; round < rounds; round++ {
		for _, spec := range specs {
			resp, out := doProject(t, ts, spec, "doc="+url.QueryEscape(hashScheme+":"+hash), "")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, out)
			}
			if string(out) != want[spec] {
				t.Fatalf("round %d: indexed projection differs from scan:\n%s\nwant:\n%s", round, out, want[spec])
			}
			if n := strconv.Itoa(len(out)); resp.Header.Get("Content-Length") != n || resp.Header.Get("X-SMP-Bytes-Written") != n {
				t.Errorf("round %d: Content-Length %q, X-SMP-Bytes-Written %q, want %s", round,
					resp.Header.Get("Content-Length"), resp.Header.Get("X-SMP-Bytes-Written"), n)
			}
		}
	}

	st := serverStats(t, ts)
	if st.IndexHits != rounds*int64(len(specs)) || st.IndexSkips != 0 {
		t.Errorf("index_hits = %d, index_skips = %d, want %d, 0", st.IndexHits, st.IndexSkips, rounds*len(specs))
	}
	if st.DocCache.Indexes != len(specs) {
		t.Errorf("doc_cache.indexes = %d, want %d", st.DocCache.Indexes, len(specs))
	}
	// The sidecars persist next to the spool file, fingerprint-keyed.
	for _, spec := range specs {
		pf, err := smp.Compile(auctionDTD, spec, smp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(srv.docs.sidecarPath(hash, pf.VocabularyFingerprint())); err != nil {
			t.Errorf("sidecar for %q: %v", spec, err)
		}
	}
	matches, err := filepath.Glob(filepath.Join(srv.docs.dir, hash+".*"+smp.IndexSidecarExt))
	if err != nil || len(matches) != len(specs) {
		t.Fatalf("sidecar glob = %v (err %v), want %d", matches, err, len(specs))
	}
}

// TestDocIndexCoalescedBatches sends bursts of concurrent document-cache
// references for one vocabulary: the first burst races to build the
// sidecar, and every projection, racing or not, must replay the one index —
// one index_hits per projection, one index in the cache. The name dates
// from the request coalescer whose batches this used to replay through.
func TestDocIndexCoalescedBatches(t *testing.T) {
	_, ts := docServer(t)
	hash := uploadDoc(t, ts, auctionDoc)
	spec := "/*, //australia//name#"
	want := referenceOutputs(t, auctionDoc, spec)[spec]
	const rounds, burst = 3, 4
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, out := doProject(t, ts, spec, "doc="+url.QueryEscape(hashScheme+":"+hash), "")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("round %d: status %d: %s", round, resp.StatusCode, out)
				} else if string(out) != want {
					t.Errorf("round %d: projection %q, want %q", round, out, want)
				}
			}()
		}
		wg.Wait()
	}
	st := serverStats(t, ts)
	if st.IndexHits != rounds*burst || st.IndexSkips != 0 {
		t.Errorf("index_hits = %d, index_skips = %d, want %d, 0 (every reference replays the index)", st.IndexHits, st.IndexSkips, rounds*burst)
	}
	if st.DocCache.Indexes != 1 {
		t.Errorf("doc_cache.indexes = %d, want 1", st.DocCache.Indexes)
	}
}

// TestDocIndexCapFallsBackToScan fills a document's index map to its cap
// and checks that the next vocabulary scans instead of building — counted
// as an index skip, output still correct.
func TestDocIndexCapFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	srv := newServer(16, 0, smp.Options{})
	srv.docs = newDocCache(dir, 64<<20)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	hash := uploadDoc(t, ts, auctionDoc)

	e, ok := srv.docs.get(hash)
	if !ok {
		t.Fatal("uploaded document not cached")
	}
	defer srv.docs.release(e)
	pf, err := smp.Compile(auctionDTD, "/*, //australia//name#", smp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix := pf.BuildIndex([]byte(auctionDoc))
	for fp := uint64(0); fp < maxDocIndexes; fp++ {
		if !srv.docs.admitIndex(e, fp, ix) {
			t.Fatalf("admitIndex(%d) refused below the cap", fp)
		}
	}
	if srv.docs.admitIndex(e, uint64(maxDocIndexes), ix) {
		t.Fatal("admitIndex admitted past the cap")
	}
	if got := srv.docIndex(e, pf); got != nil {
		t.Fatal("docIndex built an index past the cap")
	}

	resp, out := doProject(t, ts, "/*, //australia//name#", "doc="+url.QueryEscape(hashScheme+":"+hash), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), "<name>PDA</name>") {
		t.Errorf("capped projection %q misses the item name", out)
	}
	if st := serverStats(t, ts); st.IndexHits != 0 || st.IndexSkips == 0 {
		t.Errorf("index_hits = %d, index_skips = %d, want 0 hits and >=1 skip", st.IndexHits, st.IndexSkips)
	}
}

// TestDocCacheWarmRestart exercises the -doccachedir restart path: a second
// cache over the same spool directory re-admits digest-verified documents,
// serves them (and their persisted sidecars) without re-upload, removes
// files whose content no longer matches their name, and sweeps orphaned
// sidecars.
func TestDocCacheWarmRestart(t *testing.T) {
	dir := t.TempDir()
	srv := newServer(16, 0, smp.Options{})
	srv.docs = newDocCache(dir, 64<<20)
	ts := httptest.NewServer(srv.routes())
	hash := uploadDoc(t, ts, auctionDoc)
	spec := "/*, //australia//description#"
	// Build the sidecar before the "shutdown".
	if resp, out := doProject(t, ts, spec, "doc="+url.QueryEscape(hashScheme+":"+hash), ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	ts.Close()

	// Sabotage for the restart sweep: one mutated document (digest no longer
	// matches its name) with a sidecar, and one orphaned sidecar.
	staleHash := hashBytes([]byte("<other/>"))
	stalePath := filepath.Join(dir, staleHash+".xml")
	if err := os.WriteFile(stalePath, []byte("<mutated-underfoot/>"), 0o644); err != nil {
		t.Fatal(err)
	}
	staleSidecar := filepath.Join(dir, fmt.Sprintf("%s.%016x%s", staleHash, 7, smp.IndexSidecarExt))
	orphanSidecar := filepath.Join(dir, fmt.Sprintf("%s.%016x%s", strings.Repeat("a", hashHexLen), 7, smp.IndexSidecarExt))
	for _, p := range []string{staleSidecar, orphanSidecar} {
		if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv2 := newServer(16, 0, smp.Options{})
	srv2.docs = newDocCache(dir, 64<<20)
	if n := srv2.docs.warmRestart(); n != 1 {
		t.Fatalf("warmRestart restored %d documents, want 1", n)
	}
	ts2 := httptest.NewServer(srv2.routes())
	t.Cleanup(ts2.Close)

	// The document serves again without re-upload, and the first projection
	// replays the sidecar written by the previous process: an index hit with
	// zero builds means the candidate stream survived the restart.
	resp, out := doProject(t, ts2, spec, "doc="+url.QueryEscape(hashScheme+":"+hash), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart status %d: %s", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), "<description>Palm Zire 71</description>") {
		t.Errorf("post-restart projection %q misses the description", out)
	}
	if st := serverStats(t, ts2); st.IndexHits != 1 || st.IndexSkips != 0 {
		t.Errorf("post-restart index_hits = %d, index_skips = %d, want 1, 0", st.IndexHits, st.IndexSkips)
	}

	for _, p := range []string{stalePath, staleSidecar, orphanSidecar} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("restart sweep left %s behind (err %v)", p, err)
		}
	}
	// The verified document and its sidecar both survive.
	if _, err := os.Stat(filepath.Join(dir, hash+".xml")); err != nil {
		t.Errorf("restart removed the verified document: %v", err)
	}
}
