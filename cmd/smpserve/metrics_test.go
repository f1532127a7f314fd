package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"smp"
)

// testLogger returns a quiet structured logger for tests.
func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// waitFor polls cond until it holds: the request counters are committed in
// handler defers, which may still be running when the client has already
// read the full response.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// scrapeMetrics fetches /metrics and parses the exposition into a
// name{labels} -> value map (HELP/TYPE lines skipped).
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseMetrics(t, string(body))
}

func parseMetrics(t *testing.T, exposition string) map[string]float64 {
	t.Helper()
	vals := make(map[string]float64)
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		vals[line[:sp]] = v
	}
	return vals
}

// TestMetricsReconcilesWithStats drives a mix of successful and failing
// requests, then checks that /metrics and /stats — two views of one
// registry — report the same counters, and that the per-endpoint
// instruments saw the traffic.
func TestMetricsReconcilesWithStats(t *testing.T) {
	_, ts := testServer(t, 4)
	params := "paths=" + url.QueryEscape("/*, //australia//description#")
	for i := 0; i < 3; i++ {
		resp := postProject(t, ts, params, url.PathEscape(auctionDTD), auctionDoc)
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("project status = %d", resp.StatusCode)
		}
	}
	// One guaranteed failure: no DTD at all.
	resp := postProject(t, ts, "paths="+url.QueryEscape("/*"), "", auctionDoc)
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != 400 {
		t.Fatalf("bad request status = %d, want 400", resp.StatusCode)
	}

	waitFor(t, "request counters to settle", func() bool {
		m := scrapeMetrics(t, ts)
		return m["smpserve_requests_total"] == 4 &&
			m[`smpserve_http_requests_total{endpoint="/project"}`] == 4
	})
	st := serverStats(t, ts)
	m := scrapeMetrics(t, ts)

	same := []struct {
		metric string
		stat   int64
	}{
		{"smpserve_requests_total", st.Requests},
		{"smpserve_request_failures_total", st.Failures},
		{"smpserve_requests_in_flight", st.RequestsInFlight},
		{"smpserve_requests_cancelled_total", st.Cancelled},
		{"smpserve_document_bytes_read_total", st.BytesRead},
		{"smpserve_projection_bytes_written_total", st.BytesWritten},
		{"smpserve_index_hits_total", st.IndexHits},
		{"smpserve_index_skips_total", st.IndexSkips},
		{"smpserve_index_summary_skips_total", st.IndexSummarySkips},
		{"smpserve_coalesce_batch_size_count", st.CoalesceBatches},
		{"smpserve_plan_cache_hits_total", st.CacheHits},
		{"smpserve_plan_cache_misses_total", st.CacheMisses},
		{"smpserve_plan_cache_entries", int64(st.CacheSize)},
		{"smpserve_shed_requests_total", st.ShedRequests},
	}
	for _, c := range same {
		if got, ok := m[c.metric]; !ok || got != float64(c.stat) {
			t.Errorf("%s = %v (present %v), /stats reports %d", c.metric, got, ok, c.stat)
		}
	}
	if st.Requests != 4 || st.Failures != 1 {
		t.Errorf("requests = %d, failures = %d, want 4, 1", st.Requests, st.Failures)
	}
	if got := m[`smpserve_http_requests_total{endpoint="/project"}`]; got != 4 {
		t.Errorf("http_requests{/project} = %v, want 4", got)
	}
	if got := m[`smpserve_http_request_seconds_count{endpoint="/project"}`]; got != 4 {
		t.Errorf("http_request_seconds_count{/project} = %v, want 4", got)
	}
	if got := m[`smpserve_http_request_seconds_bucket{endpoint="/project",le="+Inf"}`]; got != 4 {
		t.Errorf("latency +Inf bucket = %v, want 4", got)
	}
	// Build info renders as a gauge with value 1 whatever the labels.
	found := false
	for k, v := range m {
		if strings.HasPrefix(k, "smpserve_build_info{") && v == 1 {
			found = true
		}
	}
	if !found {
		t.Error("smpserve_build_info gauge missing from exposition")
	}
}

// TestMetricsUnderConcurrentLoad hammers /project from several goroutines
// while scraping /metrics concurrently, and checks the cross-counter
// invariants inside every single exposition: failures never exceed
// requests, and the coalesce histogram's bucket counts sum to its _count.
func TestMetricsUnderConcurrentLoad(t *testing.T) {
	srv, ts := coalescingServer(t, 8)
	params := "paths=" + url.QueryEscape("/*, //australia//name#")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp := postProject(t, ts, params, url.PathEscape(auctionDTD), auctionDoc)
				io.Copy(io.Discard, resp.Body)
			}
		}()
	}
	scraped := make(chan error, 1)
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := scrapeMetrics(t, ts)
			if m["smpserve_request_failures_total"] > m["smpserve_requests_total"] {
				scraped <- fmt.Errorf("failures %v > requests %v in one scrape",
					m["smpserve_request_failures_total"], m["smpserve_requests_total"])
				return
			}
			if m[`smpserve_coalesce_batch_size_bucket{le="+Inf"}`] != m["smpserve_coalesce_batch_size_count"] {
				scraped <- fmt.Errorf("batch histogram +Inf bucket %v != count %v",
					m[`smpserve_coalesce_batch_size_bucket{le="+Inf"}`], m["smpserve_coalesce_batch_size_count"])
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err, ok := <-scraped; ok && err != nil {
		t.Fatal(err)
	}

	// Quiesced: the histogram in /stats and the one in /metrics are the same
	// instrument, bucket for bucket.
	waitFor(t, "all 100 requests to commit", func() bool {
		return srv.metrics.snapshot().Requests == 100
	})
	st := serverStats(t, ts)
	m := scrapeMetrics(t, ts)
	var histSum int64
	for _, n := range st.CoalesceBatchHist {
		histSum += n
	}
	if histSum != st.CoalesceBatches {
		t.Errorf("/stats batch hist sums to %d, coalesce_batches = %d", histSum, st.CoalesceBatches)
	}
	if got := m["smpserve_coalesce_batch_size_count"]; got != float64(st.CoalesceBatches) {
		t.Errorf("metrics batch count %v != stats %d", got, st.CoalesceBatches)
	}
	if st.Requests != 100 {
		t.Errorf("requests = %d, want 100", st.Requests)
	}
}

// TestIndexSummarySkipSurfaced projects a cached document whose vocabulary
// is disjoint from the query's: the index summary proves the replay empty,
// and the skip shows up in /stats and /metrics alike.
func TestIndexSummarySkipSurfaced(t *testing.T) {
	srv := newServer(16, 0, smp.Options{})
	srv.docs = newDocCache(t.TempDir(), 64<<20)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	foreign := `<r><row>alpha</row><row>beta</row></r>`
	resp, err := ts.Client().Post(ts.URL+"/documents", "application/xml", strings.NewReader(foreign))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	hash, ok := parseDocRef(resp.Header.Get("ETag"))
	if !ok {
		t.Fatalf("upload ETag %q does not parse", resp.Header.Get("ETag"))
	}

	params := "paths=" + url.QueryEscape("/*, //australia//description#") +
		"&doc=" + url.QueryEscape(hashScheme+":"+hash) + "&coalesce=off"
	pr := postProject(t, ts, params, url.PathEscape(auctionDTD), "")
	io.Copy(io.Discard, pr.Body)

	waitFor(t, "summary skip to commit", func() bool {
		return srv.metrics.snapshot().IndexSummarySkips >= 1
	})
	st := serverStats(t, ts)
	if st.IndexSummarySkips < 1 {
		t.Errorf("index_summary_skips = %d, want >= 1", st.IndexSummarySkips)
	}
	m := scrapeMetrics(t, ts)
	if got := m["smpserve_index_summary_skips_total"]; got != float64(st.IndexSummarySkips) {
		t.Errorf("metrics summary skips %v != stats %d", got, st.IndexSummarySkips)
	}
}

// TestHealthzBuildInfo checks that the liveness endpoint reports the build
// identity alongside the ok status.
func TestHealthzBuildInfo(t *testing.T) {
	_, ts := testServer(t, 2)
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status    string `json:"status"`
		GoVersion string `json:"goversion"`
		Version   string `json:"version"`
		Revision  string `json:"revision"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if h.GoVersion == "" || h.GoVersion == "unknown" {
		t.Errorf("goversion = %q, want the embedded Go version", h.GoVersion)
	}
	if h.Version == "" || h.Revision == "" {
		t.Errorf("version = %q, revision = %q, want non-empty", h.Version, h.Revision)
	}
}

// TestRequestLogging routes one request through the instrumentation
// middleware with a JSON slog sink and checks the structured fields; a
// second request under a tiny -slowlog threshold must log at warn level.
func TestRequestLogging(t *testing.T) {
	srv, ts := testServer(t, 4)
	var buf bytes.Buffer
	var mu sync.Mutex
	srv.log = slog.New(slog.NewJSONHandler(&lockedWriter{w: &buf, mu: &mu}, nil))

	params := "paths=" + url.QueryEscape("/*, //australia//description#")
	resp := postProject(t, ts, params, url.PathEscape(auctionDTD), auctionDoc)
	io.Copy(io.Discard, resp.Body)

	waitFor(t, "request log line", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return strings.Contains(buf.String(), "\n")
	})
	mu.Lock()
	line := buf.String()
	mu.Unlock()
	var entry map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &entry); err != nil {
		t.Fatalf("request log line is not JSON: %v (%q)", err, line)
	}
	if entry["msg"] != "request" || entry["method"] != "POST" || entry["path"] != "/project" {
		t.Errorf("log entry = %v, want msg=request method=POST path=/project", entry)
	}
	if entry["status"] != float64(200) {
		t.Errorf("logged status = %v, want 200", entry["status"])
	}
	if entry["bytes"] == float64(0) {
		t.Error("logged bytes = 0, want the projection size")
	}

	// Every request is slower than a 1ns threshold: the next line is a warning.
	srv.slowLog = time.Nanosecond
	mu.Lock()
	buf.Reset()
	mu.Unlock()
	resp = postProject(t, ts, params, url.PathEscape(auctionDTD), auctionDoc)
	io.Copy(io.Discard, resp.Body)
	waitFor(t, "slow-request log line", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return strings.Contains(buf.String(), "\n")
	})
	mu.Lock()
	line = buf.String()
	mu.Unlock()
	if !strings.Contains(line, `"level":"WARN"`) || !strings.Contains(line, "slow request") {
		t.Errorf("slowlog line = %q, want WARN slow request", line)
	}
}

// lockedWriter serialises concurrent slog writes into one buffer.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
