package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"smp"
	"smp/internal/obs"
	"smp/internal/xmlgen"
)

// stubServe is a miniature in-process stand-in for smpserve: enough of
// /project and /documents for the -serve harness to run against, with real
// projections (so the harness's byte-identity gate actually bites). The CI
// load-smoke job covers the real binary; these tests
// cover the harness mechanics — arrival loops, percentile math, trajectory
// records, equivalence plumbing.
type stubServe struct {
	mu   sync.Mutex
	docs map[string][]byte
	pfs  map[string]*smp.Prefilter

	reg *obs.Registry
	lat *obs.Histogram
}

func newStubServe() *stubServe {
	reg := obs.NewRegistry()
	return &stubServe{
		docs: make(map[string][]byte),
		pfs:  make(map[string]*smp.Prefilter),
		reg:  reg,
		lat: reg.Histogram("smpserve_http_request_seconds", "stub latency", obs.ExpBuckets(0.0005, 4, 8),
			obs.Label{Key: "endpoint", Value: "/project"}),
	}
}

func (s *stubServe) prefilter(spec string) (*smp.Prefilter, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pf, ok := s.pfs[spec]; ok {
		return pf, nil
	}
	pf, err := smp.Compile(xmlgen.XMarkDTD(), spec, smp.Options{})
	if err != nil {
		return nil, err
	}
	s.pfs[spec] = pf
	return pf, nil
}

func (s *stubServe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/documents" && r.Method == http.MethodPost:
		data, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sum := sha256.Sum256(data)
		hash := hex.EncodeToString(sum[:])
		s.mu.Lock()
		s.docs[hash] = data
		s.mu.Unlock()
		w.Header().Set("ETag", `"sha256:`+hash+`"`)
		w.WriteHeader(http.StatusCreated)
	case r.URL.Path == "/healthz":
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"status":"ok","goversion":"go-stub","version":"(test)","revision":"none"}`)
	case r.URL.Path == "/metrics":
		s.reg.WritePrometheus(w)
	case r.URL.Path == "/project":
		start := time.Now()
		defer func() {
			s.reg.Commit(func() { s.lat.Observe(time.Since(start).Seconds()) })
		}()
		var doc []byte
		if ref := r.URL.Query().Get("doc"); ref != "" {
			hash := strings.TrimPrefix(ref, "sha256:")
			s.mu.Lock()
			doc = s.docs[hash]
			s.mu.Unlock()
			if doc == nil {
				http.Error(w, "document not cached", http.StatusNotFound)
				return
			}
		} else {
			var err error
			if doc, err = io.ReadAll(r.Body); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		pf, err := s.prefilter(r.URL.Query().Get("paths"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if _, err := pf.Project(r.Context(), w, bytes.NewReader(doc)); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		}
	default:
		http.NotFound(w, r)
	}
}

func TestRunServe(t *testing.T) {
	ts := httptest.NewServer(newStubServe())
	defer ts.Close()

	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "serve.json")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-serve", ts.URL,
		"-conns", "4",
		"-duration", "300ms",
		"-dup", "0.5",
		"-xmark", "64KiB",
		"-json", jsonPath,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run -serve: %v\nstderr: %s", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"Serve-mode load", "doc-ref", "p95", "byte-identical", "server-side /metrics histogram"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// The trajectory point carries the phase's record with latency fields,
	// plus the server-side scrape.
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var trajectory []benchPoint
	if err := json.Unmarshal(data, &trajectory); err != nil {
		t.Fatalf("trajectory does not parse: %v", err)
	}
	if len(trajectory) != 1 {
		t.Fatalf("trajectory has %d points, want 1", len(trajectory))
	}
	records := trajectory[0].Records
	if len(records) != 2 {
		t.Fatalf("point has %d records, want 2 (the load phase, the server-side scrape)", len(records))
	}
	inputs := map[string]bool{}
	for _, r := range records {
		inputs[r.Input] = true
		if r.Mode == "serve-server" {
			// The end-of-run scrape: server-side percentiles from /metrics.
			if r.P50Ms <= 0 || r.P50Ms > r.P95Ms || r.P95Ms > r.P99Ms {
				t.Errorf("scrape record %+v: percentiles missing or out of order", r)
			}
			continue
		}
		if r.Mode != "serve" || r.K != 4 {
			t.Errorf("record %+v: want mode=serve k=4", r)
		}
		if r.QPS <= 0 || r.P50Ms <= 0 || r.P95Ms <= 0 || r.P99Ms <= 0 {
			t.Errorf("record %+v: latency fields must be positive", r)
		}
		if r.P50Ms > r.P95Ms || r.P95Ms > r.P99Ms {
			t.Errorf("record %+v: percentiles out of order", r)
		}
	}
	for _, want := range []string{"doc-ref", "metrics"} {
		if !inputs[want] {
			t.Errorf("records cover inputs %v, want %s among them", inputs, want)
		}
	}
}

func TestRunServeOpenLoop(t *testing.T) {
	ts := httptest.NewServer(newStubServe())
	defer ts.Close()

	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-serve", ts.URL,
		"-conns", "2",
		"-duration", "300ms",
		"-rate", "50",
		"-xmark", "32KiB",
		"-body", // exercise the per-request upload path too
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run -serve (open loop): %v\nstderr: %s", err, stderr.String())
	}
	for _, want := range []string{"open @ 50 req/s", "body"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output does not report %q:\n%s", want, stdout.String())
		}
	}
}

// TestRunServeEquivalenceGate corrupts one response and checks that the
// harness fails loudly against its in-process references — the property CI
// relies on.
func TestRunServeEquivalenceGate(t *testing.T) {
	stub := newStubServe()
	var n int64
	var mu sync.Mutex
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/project" {
			mu.Lock()
			n++
			corrupt := n == 3
			mu.Unlock()
			if corrupt {
				// A response that diverges from the library's projection.
				w.Write([]byte("<corrupted/>"))
				return
			}
		}
		stub.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(handler)
	defer ts.Close()

	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-serve", ts.URL,
		"-conns", "2",
		"-duration", "400ms",
		"-xmark", "32KiB",
	}, &stdout, &stderr)
	if err == nil {
		t.Fatal("harness accepted a corrupted response")
	}
	if !strings.Contains(err.Error(), "equivalence violation") {
		t.Errorf("error %q does not name the equivalence violation", err)
	}
}

func TestRunServeBadURL(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-serve", "http://127.0.0.1:1", // nothing listens on port 1
		"-conns", "1",
		"-duration", "100ms",
		"-xmark", "32KiB",
	}, &stdout, &stderr)
	if err == nil {
		t.Fatal("run -serve against a dead server succeeded")
	}
	if !strings.Contains(err.Error(), "reference") && !strings.Contains(err.Error(), "refused") {
		t.Logf("error (acceptable, as long as it fails): %v", err)
	}
}
