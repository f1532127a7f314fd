package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
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

// docServer builds a test server with the document cache and the admission
// budget enabled.
func docServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(16, 0, smp.Options{})
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

// referenceOutputs projects doc through the standalone library path once
// per spec: the bytes every server response must reproduce.
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

// sendShortBody writes a POST to path over a raw connection that declares
// a Content-Length of declared bytes but delivers only body, then half-closes
// the connection and returns whatever the server answered before closing it.
func sendShortBody(t *testing.T, ts *httptest.Server, path string, declared int, body string) string {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: test\r\nX-SMP-DTD: %s\r\nContent-Length: %d\r\n\r\n%s",
		path, url.PathEscape(auctionDTD), declared, body)
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	answer, _ := io.ReadAll(conn)
	return string(answer)
}

// auctionItems builds a document under auctionDTD of a little over size
// bytes: australia holds numbered items, so every projection of it is
// larger than net/http's response buffer.
func auctionItems(size int) string {
	var b strings.Builder
	b.WriteString(`<site><regions><africa/><asia/><australia>`)
	for i := 0; b.Len() <= size; i++ {
		fmt.Fprintf(&b, `<item><location>l%d</location><name>n%d</name><payment>p</payment><description>text %d</description><shipping/><incategory category="c%d"/></item>`, i, i, i, i)
	}
	b.WriteString(`</australia></regions></site>`)
	return b.String()
}

// waitGoroutines retries until the goroutine count drops back to the
// baseline (HTTP keep-alives unwind asynchronously).
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

// TestConcurrentSameDocument is the -race test of the buffered path: many
// goroutines project one document at once, as a document-cache reference,
// as a request body and as a docroot file. Every response must be
// byte-identical to Prefilter.Project output for its spec and carry
// Content-Length and X-SMP-* headers, and afterwards /stats must account
// for exactly the bytes read and written, the index replays and the
// zero-copy runs, with the server back at its goroutine baseline.
func TestConcurrentSameDocument(t *testing.T) {
	srv, ts := docServer(t)
	srv.docroot = t.TempDir()
	doc := auctionItems(32 << 10)
	if err := os.WriteFile(filepath.Join(srv.docroot, "auction.xml"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	hash := uploadDoc(t, ts, doc)
	specs := []string{
		"/*, //australia//name#",
		"//item/description#",
		"//regions//location#",
	}
	want := referenceOutputs(t, doc, specs...)
	sources := []struct {
		extra, body string
	}{
		{"doc=" + url.QueryEscape(hashScheme+":"+hash), ""},
		{"", doc},
		{"doc=auction.xml", ""},
	}

	before := runtime.NumGoroutine()
	const workers = 8
	const perWorker = 12
	var mu sync.Mutex
	var written int64
	var perSource [3]int64
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				k := rng.Intn(len(sources))
				spec := specs[rng.Intn(len(specs))]
				resp, out := doProject(t, ts, spec, sources[k].extra, sources[k].body)
				switch {
				case resp.StatusCode != http.StatusOK:
					errs <- fmt.Errorf("source %d: status %d: %s", k, resp.StatusCode, out)
					continue
				case string(out) != want[spec]:
					errs <- fmt.Errorf("source %d, spec %q: output diverges from Prefilter.Project", k, spec)
				case resp.Header.Get("Content-Length") != strconv.Itoa(len(out)):
					errs <- fmt.Errorf("source %d: Content-Length %q for %d bytes", k, resp.Header.Get("Content-Length"), len(out))
				case resp.Header.Get("X-SMP-Bytes-Written") != strconv.Itoa(len(out)):
					errs <- fmt.Errorf("source %d: X-SMP-Bytes-Written %q for %d bytes", k, resp.Header.Get("X-SMP-Bytes-Written"), len(out))
				}
				mu.Lock()
				written += int64(len(out))
				perSource[k]++
				mu.Unlock()
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	ts.Client().CloseIdleConnections()
	waitGoroutines(t, before)
	const n = workers * perWorker
	waitFor(t, "every request to commit", func() bool { return srv.metrics.snapshot().Requests == n+1 })
	st := serverStats(t, ts)
	size := int64(len(doc))
	if st.Failures != 0 || st.RequestsInFlight != 0 || st.BufferedBytes != 0 {
		t.Errorf("failures %d, in flight %d, buffered %d; want all 0", st.Failures, st.RequestsInFlight, st.BufferedBytes)
	}
	// The upload reads the document once; every projection reads it once.
	if st.BytesRead != (n+1)*size || st.BytesWritten != written {
		t.Errorf("bytes read/written = %d/%d, want %d/%d", st.BytesRead, st.BytesWritten, (n+1)*size, written)
	}
	if st.IndexHits != perSource[0] || st.IndexSkips != 0 {
		t.Errorf("index hits/skips = %d/%d, want %d/0 (every doc-cache reference replays)", st.IndexHits, st.IndexSkips, perSource[0])
	}
	if runtime.GOOS == "linux" && st.ZeroCopyRuns != perSource[0]+perSource[2] {
		t.Errorf("zero_copy_runs = %d, want %d (every reference and docroot run is mapped)", st.ZeroCopyRuns, perSource[0]+perSource[2])
	}
}

// TestCoalescingByteIdentity releases a burst of same-document requests at
// once, duplicate path sets among them, and checks that every response is
// byte-identical to the standalone Project output for its path set: the
// core contract. The name dates from the request coalescer this burst used
// to exercise; each request now runs its own pass, so no response may carry
// the retired X-SMP-Coalesced-Batch header, and once the burst commits the
// in-flight and admission gauges must be back at zero.
func TestCoalescingByteIdentity(t *testing.T) {
	srv, ts := docServer(t)
	specs := []string{
		"/*, //australia//name#",
		"//item/description#",
		"/*, //australia//name#", // duplicate of spec 0
		"//regions//location#",
	}
	want := referenceOutputs(t, auctionDoc, specs...)

	const perSpec = 4
	n := len(specs) * perSpec
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		spec := specs[i/perSpec]
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, out := doProject(t, ts, spec, "", auctionDoc)
			switch {
			case resp.StatusCode != http.StatusOK:
				t.Errorf("spec %q: status %d: %s", spec, resp.StatusCode, out)
			case string(out) != want[spec]:
				t.Errorf("spec %q: output %q, want %q", spec, out, want[spec])
			case resp.Header.Get("X-SMP-Bytes-Written") != strconv.Itoa(len(out)):
				t.Errorf("spec %q: X-SMP-Bytes-Written %q for %d bytes", spec, resp.Header.Get("X-SMP-Bytes-Written"), len(out))
			case resp.Header.Get("X-SMP-Coalesced-Batch") != "":
				t.Errorf("spec %q: retired X-SMP-Coalesced-Batch header still sent", spec)
			}
		}()
	}
	close(start)
	wg.Wait()

	waitFor(t, "every request to commit", func() bool { return srv.metrics.snapshot().Requests == int64(n) })
	if c := srv.metrics.snapshot(); c.Failures != 0 || c.InFlight != 0 {
		t.Errorf("failures = %d, in flight = %d, want 0, 0", c.Failures, c.InFlight)
	}
	if buffered, _ := srv.adm.view(); buffered != 0 {
		t.Errorf("admission gauge stuck at %d bytes after the burst", buffered)
	}
}

// TestCoalescerSoak is the -race soak: hundreds of goroutines mixing
// identical-document, distinct-document, cancelled and malformed requests
// against one server. Every successful response must be byte-identical to
// the standalone Project output for its (document, spec) pair, and the
// server must unwind to its goroutine baseline with its gauges at zero
// afterwards. The name dates from the request coalescer it used to soak.
func TestCoalescerSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	srv, ts := docServer(t)

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
				case 0: // cancelled mid-request
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
						errs <- fmt.Errorf("output diverges for spec %q", spec)
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

	// Everything unwound: no leaked handler goroutines, no stuck admission
	// reservations or in-flight count. Idle keep-alive connections (two
	// goroutines per conn) are closed first so the count can actually
	// return to the baseline.
	ts.Client().CloseIdleConnections()
	waitGoroutines(t, before)
	if buffered, _ := srv.adm.view(); buffered != 0 {
		t.Errorf("admission gauge stuck at %d bytes after the soak", buffered)
	}
	waitFor(t, "the in-flight gauge to drain", func() bool { return srv.metrics.snapshot().InFlight == 0 })
}

// TestCoalescingOptOut checks that the retired ?coalesce=off opt-out is
// ignored like any unknown parameter: clients that still send it get the
// same response as clients that do not.
func TestCoalescingOptOut(t *testing.T) {
	_, ts := docServer(t)
	spec := "/*, //australia//name#"
	resp, out := doProject(t, ts, spec, "coalesce=off", auctionDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if want := referenceOutputs(t, auctionDoc, spec)[spec]; string(out) != want {
		t.Errorf("coalesce=off output %q, want %q", out, want)
	}
	if got := resp.Header.Get("X-SMP-Coalesced-Batch"); got != "" {
		t.Errorf("retired X-SMP-Coalesced-Batch header still sent: %q", got)
	}
}

// TestCoalescedErrorIsolation sends a healthy request, a request whose spec
// does not parse, a non-conforming document and a document that fails
// mid-way, all at once against one document: each gets its own answer —
// 200 with the right bytes, a clean 400, a clean 422, and a clean 422 with
// none of the output produced before the failure.
func TestCoalescedErrorIsolation(t *testing.T) {
	srv, ts := docServer(t)
	spec := "/*, //australia//name#"
	want := referenceOutputs(t, auctionDoc, spec)[spec]
	// Cut inside </regions>: everything up to there projects, then the
	// document ends before its root closes.
	truncated := auctionDoc[:strings.Index(auctionDoc, "</regions>")+4]

	cases := []struct {
		name, spec, body string
		code             int
	}{
		{"healthy", spec, auctionDoc, http.StatusOK},
		{"unparseable spec", "//item[", auctionDoc, http.StatusBadRequest},
		{"non-conforming document", spec, "<wrong></wrong>", http.StatusUnprocessableEntity},
		{"fails mid-way", spec, truncated, http.StatusUnprocessableEntity},
	}
	var wg sync.WaitGroup
	for _, tc := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, out := doProject(t, ts, tc.spec, "", tc.body)
			if resp.StatusCode != tc.code {
				t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, out, tc.code)
				return
			}
			switch {
			case tc.code == http.StatusOK && string(out) != want:
				t.Errorf("%s: output %q, want %q", tc.name, out, want)
			case tc.code != http.StatusOK && (!strings.HasPrefix(string(out), "smpserve: ") || strings.Contains(string(out), "<site>")):
				t.Errorf("%s: error body %q, want a plain smpserve error and no partial projection", tc.name, out)
			}
		}()
	}
	wg.Wait()
	waitFor(t, "every request to commit", func() bool { return srv.metrics.snapshot().Requests == int64(len(cases)) })
	if c := srv.metrics.snapshot(); c.Failures != 3 || c.Cancelled != 0 {
		t.Errorf("failures = %d, cancelled = %d, want 3, 0", c.Failures, c.Cancelled)
	}
}

// TestCoalescedCancellation disconnects a client while it is still sending
// a bounded body: the request counts as cancelled, its admission
// reservation is released, and the next request is served normally.
func TestCoalescedCancellation(t *testing.T) {
	srv, ts := docServer(t)
	spec := "/*, //australia//name#"
	answer := sendShortBody(t, ts, "/project?paths="+url.QueryEscape(spec), len(auctionDoc), auctionDoc[:10])
	if strings.Contains(answer, "200 OK") {
		t.Errorf("truncated body was answered %q", answer)
	}
	waitFor(t, "the disconnected request to count as cancelled", func() bool {
		return srv.metrics.snapshot().Cancelled == 1
	})
	if buffered, _ := srv.adm.view(); buffered != 0 {
		t.Errorf("admission gauge stuck at %d bytes after a disconnect", buffered)
	}
	resp, out := doProject(t, ts, spec, "", auctionDoc)
	if resp.StatusCode != http.StatusOK || string(out) != referenceOutputs(t, auctionDoc, spec)[spec] {
		t.Errorf("request after the disconnect: status %d, output %q", resp.StatusCode, out)
	}
}

// TestStreamedBodyTrailers checks the streaming path: chunked bodies (no
// Content-Length) and a body declared larger than maxBufferedBody are
// projected without buffering, answered without Content-Length, with the
// X-SMP-* counters as trailers, and byte-identical to Prefilter.Project —
// also when the projection starts writing while most of the body has yet
// to arrive.
func TestStreamedBodyTrailers(t *testing.T) {
	srv, ts := docServer(t)
	spec := "/*, //australia//description#"
	mid, big := auctionItems(200<<10), auctionItems(maxBufferedBody)

	for _, tc := range []struct {
		name string
		body io.Reader // a bare io.Reader: the client sends it chunked
		doc  string
	}{
		{"chunked", io.MultiReader(strings.NewReader(auctionDoc)), auctionDoc},
		{"chunked, output before the body ends", io.MultiReader(strings.NewReader(mid)), mid},
		{"oversized", strings.NewReader(big), big},
	} {
		req, err := http.NewRequest(http.MethodPost, projectURL(ts, spec, ""), tc.body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-SMP-DTD", url.PathEscape(auctionDTD))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, out)
		}
		if string(out) != referenceOutputs(t, tc.doc, spec)[spec] {
			t.Errorf("%s: streamed output diverges from Prefilter.Project", tc.name)
		}
		if resp.ContentLength != -1 || resp.Header.Get("X-SMP-Bytes-Written") != "" {
			t.Errorf("%s: Content-Length %d, header X-SMP-Bytes-Written %q; want neither on a streamed response",
				tc.name, resp.ContentLength, resp.Header.Get("X-SMP-Bytes-Written"))
		}
		if got := resp.Trailer.Get("X-SMP-Bytes-Written"); got != strconv.Itoa(len(out)) {
			t.Errorf("%s: X-SMP-Bytes-Written trailer %q for %d bytes", tc.name, got, len(out))
		}
	}
	if buffered, _ := srv.adm.view(); buffered != 0 {
		t.Errorf("streamed bodies left %d bytes reserved", buffered)
	}
}
