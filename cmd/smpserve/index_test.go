package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smp"
)

// uploadAuctionDoc uploads the fixture document and returns its digest.
func uploadAuctionDoc(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/documents", "application/xml", strings.NewReader(auctionDoc))
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
// end on the uncoalesced route: the first ?doc= projection builds and
// persists the sidecar, every later one replays it — byte-identical to the
// scan, counted as index_hits in /stats.
func TestDocIndexServesRepeatedProjections(t *testing.T) {
	dir := t.TempDir()
	srv := newServer(16, 0, smp.Options{})
	srv.docs = newDocCache(dir, 64<<20)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	hash := uploadAuctionDoc(t, ts)

	spec := "/*, //australia//description#"
	pf, err := smp.Compile(auctionDTD, spec, smp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf strings.Builder
	if _, err := pf.Project(context.Background(), &wantBuf, strings.NewReader(auctionDoc)); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 3; round++ {
		resp, out := doProject(t, ts, spec, "doc="+url.QueryEscape(hashScheme+":"+hash)+"&coalesce=off", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, out)
		}
		if string(out) != wantBuf.String() {
			t.Fatalf("round %d: indexed projection differs from scan:\n%s\nwant:\n%s", round, out, wantBuf.String())
		}
	}

	st := serverStats(t, ts)
	if st.IndexHits != 3 || st.IndexSkips != 0 {
		t.Errorf("index_hits = %d, index_skips = %d, want 3, 0", st.IndexHits, st.IndexSkips)
	}
	if st.DocCache.Indexes != 1 {
		t.Errorf("doc_cache.indexes = %d, want 1", st.DocCache.Indexes)
	}
	// The sidecar persists next to the spool file, fingerprint-keyed.
	matches, err := filepath.Glob(filepath.Join(dir, hash+".*"+smp.IndexSidecarExt))
	if err != nil || len(matches) != 1 {
		t.Fatalf("sidecar glob = %v (err %v), want exactly one", matches, err)
	}
	want := srv.docs.sidecarPath(hash, pf.VocabularyFingerprint())
	if matches[0] != want {
		t.Errorf("sidecar at %s, want %s", matches[0], want)
	}
}

// TestDocIndexCoalescedBatches checks that document-cache batches through
// the coalescer replay the index too: repeated singleton batches for the
// same (document, query) count index hits after the first.
func TestDocIndexCoalescedBatches(t *testing.T) {
	_, ts := coalescingServer(t, 8)
	hash := uploadAuctionDoc(t, ts)
	spec := "/*, //australia//name#"
	for round := 0; round < 3; round++ {
		resp, out := doProject(t, ts, spec, "doc="+url.QueryEscape(hashScheme+":"+hash), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, out)
		}
		if !strings.Contains(string(out), "<name>PDA</name>") {
			t.Fatalf("round %d: projection %q misses the item name", round, out)
		}
	}
	if st := serverStats(t, ts); st.IndexHits != 3 {
		t.Errorf("index_hits = %d, want 3 (every batch replays the union index)", st.IndexHits)
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
	hash := uploadAuctionDoc(t, ts)

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

	resp, out := doProject(t, ts, "/*, //australia//name#", "doc="+url.QueryEscape(hashScheme+":"+hash)+"&coalesce=off", "")
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
	hash := uploadAuctionDoc(t, ts)
	spec := "/*, //australia//description#"
	// Build the sidecar before the "shutdown".
	if resp, out := doProject(t, ts, spec, "doc="+url.QueryEscape(hashScheme+":"+hash)+"&coalesce=off", ""); resp.StatusCode != http.StatusOK {
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
	resp, out := doProject(t, ts2, spec, "doc="+url.QueryEscape(hashScheme+":"+hash)+"&coalesce=off", "")
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
