package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"smp"
)

// TestCacheKeyNormalization posts the same path set twice in different
// order (and with a duplicate), plus the equivalent query expression, and
// checks that all of them share one compiled cache entry.
func TestCacheKeyNormalization(t *testing.T) {
	srv, ts := testServer(t, 8)
	specs := []string{
		"/*, //australia//description#",
		"//australia//description#, /*",
		"//australia//description#, /*, //australia//description#",
	}
	var first []byte
	for i, spec := range specs {
		resp := postProject(t, ts, "paths="+url.QueryEscape(spec), url.PathEscape(auctionDTD), auctionDoc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("spec %d: status = %d, want 200", i, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Errorf("spec %d: output differs from spec 0", i)
		}
	}
	_, size, _, hits, misses, _ := srv.cache.view()
	if size != 1 {
		t.Errorf("cache size = %d, want 1 shared entry for the permuted specs", size)
	}
	if misses != 1 || hits != int64(len(specs)-1) {
		t.Errorf("cache hits/misses = %d/%d, want %d/1", hits, misses, len(specs)-1)
	}
}

// readMultipart parses a /multiproject response into per-part bodies and
// headers, in order.
func readMultipart(t *testing.T, resp *http.Response) ([][]byte, []map[string]string) {
	t.Helper()
	mediaType, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil || mediaType != "multipart/mixed" {
		t.Fatalf("Content-Type = %q (err %v), want multipart/mixed", resp.Header.Get("Content-Type"), err)
	}
	mr := multipart.NewReader(resp.Body, params["boundary"])
	var bodies [][]byte
	var headers []map[string]string
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(part)
		if err != nil {
			t.Fatal(err)
		}
		h := make(map[string]string)
		for k := range part.Header {
			h[k] = part.Header.Get(k)
		}
		bodies = append(bodies, body)
		headers = append(headers, h)
	}
	return bodies, headers
}

// TestMultiProjectEndpoint posts one document for three queries and checks
// each part against the equivalent standalone /project response.
func TestMultiProjectEndpoint(t *testing.T) {
	srv, ts := testServer(t, 16)
	doc, err := smp.GenerateBytes(smp.XMark, 64<<10, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := smp.BenchmarkQueries(smp.XMark)
	if err != nil {
		t.Fatal(err)
	}
	// Queries 0, 1 and 3: query 2 (XM3) shares XM2's path set and would be
	// deduplicated by the canonical cache key.
	specs := []string{queries[0].Paths, queries[1].Paths, queries[3].Paths}

	params := "dataset=xmark"
	for _, spec := range specs {
		params += "&paths=" + url.QueryEscape(spec)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/multiproject?"+params, bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 200 (%s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-SMP-Queries"); got != "3" {
		t.Errorf("X-SMP-Queries = %q, want 3", got)
	}
	bodies, headers := readMultipart(t, resp)
	if len(bodies) != len(specs) {
		t.Fatalf("%d parts, want %d", len(bodies), len(specs))
	}

	dtdSource, err := smp.DatasetDTD(smp.XMark)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		pf, err := smp.Compile(dtdSource, spec, smp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if _, err := pf.Project(context.Background(), &want, bytes.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), bodies[i]) {
			t.Errorf("part %d: %d bytes, standalone projection %d bytes", i, len(bodies[i]), want.Len())
		}
		if headers[i]["X-Smp-Error"] != "" {
			t.Errorf("part %d: unexpected error %q", i, headers[i]["X-Smp-Error"])
		}
		if headers[i]["X-Smp-Paths"] == "" || headers[i]["X-Smp-Bytes-Written"] == "" {
			t.Errorf("part %d: missing per-query headers: %v", i, headers[i])
		}
	}

	// The per-query plans went through the same LRU /project uses, plus one
	// merged entry: 3 single entries + 1 multi entry.
	entries, size, _, _, _, _ := srv.cache.view()
	if size != len(specs)+1 {
		t.Errorf("cache size = %d, want %d (per-query plans + merged entry)", size, len(specs)+1)
	}
	var multiEntry *cacheEntryInfo
	for i := range entries {
		if strings.HasPrefix(entries[i].Label, "multi ") {
			multiEntry = &entries[i]
		}
	}
	if multiEntry == nil {
		t.Fatalf("no merged cache entry in %+v", entries)
	}
	// Merge-aware accounting: the multi entry weighs only the merged
	// engine's tables, not the per-query plans it references, which the
	// single entries already weigh.
	multi, err := smp.CompileMulti(dtdSource, specs, smp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ms := multi.PlanStats(); multiEntry.PlanBytes != ms.ScanBytes || ms.PlanBytes == 0 {
		t.Errorf("merged entry weighs %d, want the merged engine's %d scan bytes alone (its plans weigh %d)",
			multiEntry.PlanBytes, ms.ScanBytes, ms.PlanBytes)
	}

	// A repeated request hits both the per-query and the merged entries.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/multiproject?"+params, bytes.NewReader(doc))
	resp2, err := ts.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if _, size2, _, _, _, _ := srv.cache.view(); size2 != size {
		t.Errorf("cache grew from %d to %d on a repeated multiproject", size, size2)
	}

	// /stats reports the multi traffic.
	statsResp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.MultiRequests != 2 || st.MultiQueries != 6 {
		t.Errorf("multi requests/queries = %d/%d, want 2/6", st.MultiRequests, st.MultiQueries)
	}
}

// TestMultiProjectPerQueryError posts a document that conforms for one query
// but fails another: the failing part carries X-SMP-Error, the healthy part
// its projection.
func TestMultiProjectPerQueryError(t *testing.T) {
	_, ts := testServer(t, 8)
	// regions arrive out of order: valid prefix for some automata, a
	// transition error for ones that need the australia subtree in place.
	badDoc := `<site><regions><africa/><australia><item><location>x</location><name>n</name><payment>p</payment><description>d</description><shipping/><incategory category="1"/></item></australia><asia/></regions></site>`
	specs := []string{"/*, //australia//description#", "/*, //asia//item#"}
	params := ""
	for _, spec := range specs {
		params += "&paths=" + url.QueryEscape(spec)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/multiproject?"+params[1:], strings.NewReader(badDoc))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-SMP-DTD", url.PathEscape(auctionDTD))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 200 with per-part errors (%s)", resp.StatusCode, body)
	}
	bodies, headers := readMultipart(t, resp)
	if len(bodies) != 2 {
		t.Fatalf("%d parts, want 2", len(bodies))
	}
	// Compare against standalone runs: same per-query success/failure split.
	dtdSource := auctionDTD
	for i, spec := range specs {
		pf, err := smp.Compile(dtdSource, spec, smp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		_, serr := pf.Project(context.Background(), &want, strings.NewReader(badDoc))
		gotErr := headers[i]["X-Smp-Error"]
		if (serr == nil) != (gotErr == "") {
			t.Errorf("part %d: standalone err = %v, part error = %q", i, serr, gotErr)
		}
		if serr == nil && !bytes.Equal(want.Bytes(), bodies[i]) {
			t.Errorf("part %d: output differs from standalone", i)
		}
		if serr != nil && gotErr != serr.Error() {
			t.Errorf("part %d: error %q, standalone %q", i, gotErr, serr)
		}
	}
}

// TestMultiProjectBadRequests covers the request-validation paths.
func TestMultiProjectBadRequests(t *testing.T) {
	_, ts := testServer(t, 4)
	cases := []struct {
		name   string
		params string
	}{
		{"no-queries", "dataset=xmark"},
		{"both-kinds", "dataset=xmark&paths=/*&query=" + url.QueryEscape("<q>{//site}</q>")},
		{"bad-path", "dataset=xmark&paths=" + url.QueryEscape("//[bad")},
		{"bad-dataset", "dataset=nope&paths=/*"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/multiproject?"+tc.params, strings.NewReader(auctionDoc))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
	// GET is rejected.
	resp, err := ts.Client().Get(ts.URL + "/multiproject?dataset=xmark&paths=/*")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
}
