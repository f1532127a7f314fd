package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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

const auctionDTD = `<!DOCTYPE site [
<!ELEMENT site (regions)>
<!ELEMENT regions (africa, asia, australia)>
<!ELEMENT africa (item*)>
<!ELEMENT asia (item*)>
<!ELEMENT australia (item*)>
<!ELEMENT item (location,name,payment,description,shipping,incategory+)>
<!ELEMENT incategory EMPTY>
<!ATTLIST incategory category ID #REQUIRED>
<!ELEMENT location (#PCDATA)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT payment (#PCDATA)>
<!ELEMENT description (#PCDATA)>
<!ELEMENT shipping (#PCDATA)>
]>`

const auctionDoc = `<site><regions><africa/><asia/><australia><item><location>Egypt</location><name>PDA</name><payment>Check</payment><description>Palm Zire 71</description><shipping/><incategory category="3"/></item></australia></regions></site>`

func testServer(t *testing.T, cacheSize int) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(cacheSize, 0, smp.Options{})
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postProject(t *testing.T, ts *httptest.Server, params, dtdHeader, doc string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/project?"+params, strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if dtdHeader != "" {
		req.Header.Set("X-SMP-DTD", dtdHeader)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestProjectInlineDTD posts a document with the DTD in the X-SMP-DTD
// header and checks the projection and, since a body with a known length is
// answered from a buffer, Content-Length and the X-SMP-* stats headers.
func TestProjectInlineDTD(t *testing.T) {
	_, ts := testServer(t, 4)
	params := "paths=" + url.QueryEscape("/*, //australia//description#")
	resp := postProject(t, ts, params, url.PathEscape(auctionDTD), auctionDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	pf, err := smp.Compile(auctionDTD, "/*, //australia//description#", smp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	if _, err := pf.Project(context.Background(), &wantBuf, strings.NewReader(auctionDoc)); err != nil {
		t.Fatal(err)
	}
	want := wantBuf.Bytes()
	if !bytes.Equal(body, want) {
		t.Fatalf("projection = %q, want %q", body, want)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(want)) {
		t.Errorf("Content-Length = %q, want %d", got, len(want))
	}
	if got := resp.Header.Get("X-SMP-Bytes-Written"); got != strconv.Itoa(len(want)) {
		t.Errorf("X-SMP-Bytes-Written header = %q, want %d", got, len(want))
	}
	if got := resp.Header.Get("X-SMP-Bytes-Read"); got != strconv.Itoa(len(auctionDoc)) {
		t.Errorf("X-SMP-Bytes-Read header = %q, want %d", got, len(auctionDoc))
	}
}

// TestProjectDatasetAndQuery uses a bundled dataset DTD plus automatic path
// extraction from an XQuery expression.
func TestProjectDatasetAndQuery(t *testing.T) {
	_, ts := testServer(t, 4)
	doc, err := smp.GenerateBytes(smp.XMark, 32<<10, 7)
	if err != nil {
		t.Fatal(err)
	}
	params := "dataset=xmark&query=" + url.QueryEscape("<q>{//australia//description}</q>")
	resp := postProject(t, ts, params, "", string(doc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 || len(body) >= len(doc) {
		t.Fatalf("projection size %d of input %d: expected a strict, non-empty reduction", len(body), len(doc))
	}
}

// TestProjectBadRequests covers the request-validation error paths.
func TestProjectBadRequests(t *testing.T) {
	_, ts := testServer(t, 4)
	cases := []struct {
		name   string
		params string
		header string
	}{
		{"NoDTD", "paths=" + url.QueryEscape("/*"), ""},
		{"NoPaths", "dataset=xmark", ""},
		{"BothPathsAndQuery", "dataset=xmark&paths=%2F*&query=q", ""},
		{"UnknownDataset", "dataset=nope&paths=%2F*", ""},
		{"DatasetAndHeader", "dataset=xmark&paths=%2F*", url.PathEscape(auctionDTD)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postProject(t, ts, tc.params, tc.header, auctionDoc)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
		})
	}

	t.Run("NonConformingDocument", func(t *testing.T) {
		// A document that does not match the DTD fails before any output
		// byte is produced, so the service can answer with a clean 422.
		resp := postProject(t, ts, "dataset=xmark&paths="+url.QueryEscape("/*, //australia//description#"), "", "<wrong></wrong>")
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status = %d, want 422", resp.StatusCode)
		}
	})

	t.Run("GetNotAllowed", func(t *testing.T) {
		resp, err := ts.Client().Get(ts.URL + "/project?dataset=xmark&paths=%2F*")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})
}

// TestHealthzAndStats checks the service endpoints and that repeated
// requests for the same (DTD, paths) pair hit the prefilter cache.
func TestHealthzAndStats(t *testing.T) {
	_, ts := testServer(t, 4)

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
	}

	params := "dataset=xmark&paths=" + url.QueryEscape("/*, //australia//description#")
	doc, err := smp.GenerateBytes(smp.XMark, 16<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r := postProject(t, ts, params, "", string(doc))
		io.Copy(io.Discard, r.Body)
	}

	statsResp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var got statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Requests != 3 {
		t.Errorf("stats.Requests = %d, want 3", got.Requests)
	}
	if got.CacheMisses != 1 || got.CacheHits != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 2/1", got.CacheHits, got.CacheMisses)
	}
	if got.CacheSize != 1 {
		t.Errorf("stats.CacheSize = %d, want 1", got.CacheSize)
	}
	if got.BytesRead == 0 || got.BytesWritten == 0 {
		t.Errorf("stats bytes read/written = %d/%d, want non-zero", got.BytesRead, got.BytesWritten)
	}
}

// TestCacheEviction fills the LRU beyond capacity and checks evictions.
func TestCacheEviction(t *testing.T) {
	cache := newPrefilterCache(2, 0)
	pf, err := smp.Compile(auctionDTD, "/*", smp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache.put("a", "a", pf, pf.PlanStats().MemBytes)
	cache.put("b", "b", pf, pf.PlanStats().MemBytes)
	cache.put("c", "c", pf, pf.PlanStats().MemBytes) // evicts "a"
	if _, ok := cache.get("a"); ok {
		t.Error("entry a should have been evicted")
	}
	if _, ok := cache.get("b"); !ok {
		t.Error("entry b should still be cached")
	}
	entries, size, bytes, _, _, evictions := cache.view()
	if size != 2 || evictions != 1 {
		t.Errorf("size/evictions = %d/%d, want 2/1", size, evictions)
	}
	if want := 2 * (pf.PlanStats().MemBytes + int64(len("b"))); bytes != want {
		t.Errorf("cache bytes = %d, want %d (two weighted entries)", bytes, want)
	}
	for _, e := range entries {
		if e.PlanBytes != pf.PlanStats().MemBytes || e.WeightBytes <= e.PlanBytes {
			t.Errorf("entry %+v: want plan bytes %d and a strictly larger weight", e, pf.PlanStats().MemBytes)
		}
	}
}

// TestCacheByteBudget bounds the cache by plan bytes instead of entry count:
// entries are evicted as soon as the summed plan footprints exceed the
// budget, but the most recent entry always stays.
func TestCacheByteBudget(t *testing.T) {
	pf, err := smp.Compile(auctionDTD, "/*, //australia//description#", smp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	weight := pf.PlanStats().MemBytes + int64(len("a"))
	if weight <= int64(len("a")) {
		t.Fatalf("entry weight %d does not include the plan footprint", weight)
	}

	// Budget for one and a half entries: the second put must evict the first.
	cache := newPrefilterCache(16, weight*3/2)
	cache.put("a", "a", pf, pf.PlanStats().MemBytes)
	cache.put("b", "b", pf, pf.PlanStats().MemBytes)
	if _, ok := cache.get("a"); ok {
		t.Error("entry a should have been evicted by the byte budget")
	}
	if _, ok := cache.get("b"); !ok {
		t.Error("entry b should have survived")
	}

	// A budget smaller than a single plan still keeps the newest entry.
	tiny := newPrefilterCache(16, 1)
	tiny.put("only", "only", pf, pf.PlanStats().MemBytes)
	if _, ok := tiny.get("only"); !ok {
		t.Error("most recent entry must never be evicted, even over budget")
	}
}

// TestStatsReportsPlanFootprint checks that /stats exposes the per-entry
// plan footprints without leaking the DTD source.
func TestStatsReportsPlanFootprint(t *testing.T) {
	_, ts := testServer(t, 4)
	params := "dataset=xmark&paths=" + url.QueryEscape("/*, //australia//description#")
	doc, err := smp.GenerateBytes(smp.XMark, 16<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := postProject(t, ts, params, "", string(doc))
	io.Copy(io.Discard, r.Body)

	statsResp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var got statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.CacheBytes <= 0 {
		t.Errorf("stats.CacheBytes = %d, want > 0", got.CacheBytes)
	}
	if len(got.CacheEntries) != 1 {
		t.Fatalf("stats.CacheEntries = %v, want one entry", got.CacheEntries)
	}
	e := got.CacheEntries[0]
	if e.PlanBytes <= 0 || e.WeightBytes <= e.PlanBytes || e.Hits != 0 {
		t.Errorf("entry = %+v, want positive plan bytes, a larger weight and zero hits", e)
	}
	if !strings.Contains(e.Label, "dataset=xmark") || strings.Contains(e.Label, "<!ELEMENT") {
		t.Errorf("entry label %q should name the dataset and paths, never DTD source", e.Label)
	}
}

// TestConcurrentRequests hammers one cached prefilter from many goroutines
// (meaningful under -race) and checks all projections are identical.
func TestConcurrentRequests(t *testing.T) {
	_, ts := testServer(t, 4)
	doc, err := smp.GenerateBytes(smp.XMark, 64<<10, 11)
	if err != nil {
		t.Fatal(err)
	}
	params := "dataset=xmark&paths=" + url.QueryEscape("/*, //australia//description#")

	const goroutines = 8
	outs := make([][]byte, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/project?"+params, "application/xml", bytes.NewReader(doc))
			if err != nil {
				errs[g] = err
				return
			}
			defer resp.Body.Close()
			outs[g], errs[g] = io.ReadAll(resp.Body)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !bytes.Equal(outs[g], outs[0]) {
			t.Fatalf("goroutine %d produced a different projection (%d vs %d bytes)", g, len(outs[g]), len(outs[0]))
		}
	}
}

// TestIntraDocParallelThreshold checks that bodies at or above -intramin
// are projected with intra-document parallelism (identical output, counted
// in /stats) while small bodies stay serial.
func TestIntraDocParallelThreshold(t *testing.T) {
	srv, ts := testServer(t, 4)
	srv.intraWorkers = 4
	srv.intraMin = 64 << 10

	// The body must exceed one segment plus its lookahead (workers × 32 KiB
	// chunk + 32 KiB lookahead = 160 KiB at 4 workers), or ProjectParallel
	// silently falls back to the serial engine and the parallel HTTP path
	// goes unexercised.
	var big bytes.Buffer
	big.WriteString(`<site><regions><africa/><asia/><australia>`)
	for big.Len() < 256<<10 {
		big.WriteString(`<item><location>x</location><name>n</name><payment>p</payment><description>lots of text</description><shipping/><incategory category="1"/></item>`)
	}
	big.WriteString(`</australia></regions></site>`)

	pf, err := smp.Compile(auctionDTD, "/*, //australia//description#", smp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	if _, err := pf.Project(context.Background(), &wantBuf, bytes.NewReader(big.Bytes())); err != nil {
		t.Fatal(err)
	}
	want := wantBuf.Bytes()

	params := "paths=" + url.QueryEscape("/*, //australia//description#")
	// Small body: stays serial.
	resp := postProject(t, ts, params, url.PathEscape(auctionDTD), auctionDoc)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body: status %d", resp.StatusCode)
	}
	// Large body: takes the intra-document parallel path.
	resp = postProject(t, ts, params, url.PathEscape(auctionDTD), big.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("large body: status %d", resp.StatusCode)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("parallel projection differs: %d vs %d bytes", len(got), len(want))
	}

	statsResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.IntraRequests != 1 {
		t.Errorf("intra_requests = %d, want 1 (workers %d, min %d)", stats.IntraRequests, stats.IntraWorkers, stats.IntraMinBytes)
	}
	if stats.IntraWorkers != 4 || stats.IntraMinBytes != 64<<10 {
		t.Errorf("intra config in /stats = (%d, %d), want (4, %d)", stats.IntraWorkers, stats.IntraMinBytes, 64<<10)
	}
}

// TestClientDisconnectCancelsProjection starts an endless streaming
// projection, disconnects the client mid-stream, and checks that the
// in-flight projection is aborted via the request context and counted in
// /stats as a cancellation.
func TestClientDisconnectCancelsProjection(t *testing.T) {
	srv, ts := testServer(t, 4)
	// africa descriptions are kept, so the response streams while the body
	// is still being produced — the disconnect happens genuinely mid-stream.
	params := "paths=" + url.QueryEscape("/*, //africa//description#")

	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/project?"+params, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-SMP-DTD", url.PathEscape(auctionDTD))

	go func() {
		// An endless conforming document: the projection can only end via
		// cancellation.
		if _, err := io.WriteString(pw, `<site><regions><africa>`); err != nil {
			return
		}
		for i := 0; ; i++ {
			_, err := fmt.Fprintf(pw,
				`<item><location>x</location><name>n%d</name><payment>p</payment><description>africa description %d with enough text to keep the projected stream flowing</description><shipping/><incategory category="c"/></item>`,
				i, i)
			if err != nil {
				return
			}
		}
	}()

	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	// Wait until projected output is streaming, then disconnect.
	if _, err := resp.Body.Read(make([]byte, 1)); err != nil {
		t.Fatalf("reading the projected stream: %v", err)
	}
	cancel()

	deadline := time.Now().Add(10 * time.Second)
	for srv.metrics.snapshot().Cancelled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("projection was not cancelled after the client disconnected")
		}
		time.Sleep(10 * time.Millisecond)
	}

	statsResp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cancelled < 1 {
		t.Errorf("stats.cancelled = %d, want >= 1", stats.Cancelled)
	}
}

// TestDocrootProjection checks the server-local document path: doc=<name>
// projects a file from -docroot (zero-copy where supported), GET works for
// body-less requests, traversal is confined to the root, and the path is
// rejected when no docroot is configured.
func TestDocrootProjection(t *testing.T) {
	srv, ts := testServer(t, 4)
	dir := t.TempDir()
	srv.docroot = dir
	if err := os.WriteFile(filepath.Join(dir, "auction.xml"), []byte(auctionDoc), 0o644); err != nil {
		t.Fatal(err)
	}

	params := "paths=" + url.QueryEscape("/*, //australia//name#") + "&doc=auction.xml"
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/project?"+params, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-SMP-DTD", url.PathEscape(auctionDTD))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET doc= status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "<name>PDA</name>") {
		t.Errorf("docroot projection %q misses the item name", body)
	}
	if runtime.GOOS == "linux" {
		if got := srv.metrics.snapshot().ZeroCopyRuns; got != 1 {
			t.Errorf("zeroCopyRuns = %d, want 1", got)
		}
	}

	t.Run("missing document", func(t *testing.T) {
		resp := postProject(t, ts, "paths="+url.QueryEscape("/*")+"&doc=nope.xml", url.PathEscape(auctionDTD), "")
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("missing doc status %d, want 404", resp.StatusCode)
		}
	})
	t.Run("traversal confined", func(t *testing.T) {
		resp := postProject(t, ts, "paths="+url.QueryEscape("/*")+"&doc="+url.QueryEscape("../../etc/passwd"), url.PathEscape(auctionDTD), "")
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("traversal doc status %d, want 404", resp.StatusCode)
		}
	})
	t.Run("no docroot configured", func(t *testing.T) {
		srv2, ts2 := testServer(t, 4)
		_ = srv2
		resp := postProject(t, ts2, "paths="+url.QueryEscape("/*")+"&doc=auction.xml", url.PathEscape(auctionDTD), "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("no-docroot status %d, want 400", resp.StatusCode)
		}
	})
}
