package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smp"
	"smp/internal/experiments"
	"smp/internal/obs"
	"smp/internal/stats"
	"smp/internal/xmlgen"
)

// The -serve mode is the closed-loop (or paced open-loop) load harness for
// smpserve: N connections drive /project against a running server with a
// controllable duplicate-document ratio — how much of the traffic targets
// one hot document. Each response is compared byte-for-byte against a
// reference projected in-process by the library over the same bundled DTD,
// so the harness doubles as an end-to-end equivalence gate: the server must
// answer exactly what smp.Prefilter.Project produces. One timed phase
// reports p50/p95/p99 latency, request throughput and document bandwidth.

// serveConfig carries the -serve mode knobs.
type serveConfig struct {
	url      string        // base URL of the running smpserve
	conns    int           // concurrent connections (workers)
	duration time.Duration // timed length of the load phase
	dupRatio float64       // fraction of requests that target the shared hot document
	rate     float64       // open-loop arrival rate in requests/s (0 = closed loop)
	docSize  int64         // generated document size
	useBody  bool          // re-upload the document per request instead of doc=sha256:<hex>
	seed     uint64
	metrics  bool // verify /healthz build info and scrape /metrics after the run
}

// serveResult aggregates the timed phase.
type serveResult struct {
	requests  int64
	errors    int64
	docBytes  int64
	latencies []time.Duration
	elapsed   time.Duration
}

func (r *serveResult) percentile(p float64) time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	idx := int(p * float64(len(r.latencies)-1))
	return r.latencies[idx]
}

// runServe drives the load against cfg.url and reports the phase.
func runServe(ctx context.Context, scfg serveConfig, blog *benchLog) (*stats.Table, error) {
	base := strings.TrimSuffix(scfg.url, "/")
	if _, err := url.Parse(base); err != nil {
		return nil, fmt.Errorf("-serve %q: %w", scfg.url, err)
	}
	if scfg.conns < 1 {
		scfg.conns = 1
	}
	if scfg.duration <= 0 {
		scfg.duration = 2 * time.Second
	}
	if scfg.docSize <= 0 {
		scfg.docSize = 512 << 10
	}

	// Workload: one hot document every connection shares (the duplicate
	// traffic) plus one distinct document per connection (the long tail),
	// projected by a rotating set of XMark query path sets.
	hot := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: scfg.docSize, Seed: scfg.seed + 1})
	cold := make([][]byte, scfg.conns)
	for i := range cold {
		cold[i] = xmlgen.XMarkBytes(xmlgen.Config{TargetSize: scfg.docSize, Seed: scfg.seed + 2 + uint64(i)})
	}
	all := xmlgen.XMarkQueries()
	if len(all) > 3 {
		all = all[:3]
	}
	specs := make([]string, len(all))
	for i, q := range all {
		specs[i] = q.Paths
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: scfg.conns + 1}}
	defer client.CloseIdleConnections()

	// Unless -body asks for per-request uploads, each document is uploaded
	// to the content-addressed cache once and then referenced by digest:
	// requests carry ~100 bytes instead of the document, so the run measures
	// the server's projection work, not upload bandwidth. This is also the
	// intended production pattern — hot documents live server-side, clients
	// send queries.
	refFor := make(map[*byte]string) // first byte of the doc slice → doc= reference
	if !scfg.useBody {
		upload := func(doc []byte) error {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/documents", bytes.NewReader(doc))
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err != nil {
				return err
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
				return fmt.Errorf("uploading to /documents: status %d: %s (run the server with -doccache, or pass -body to re-upload per request)",
					resp.StatusCode, bytes.TrimSpace(body))
			}
			etag := strings.Trim(resp.Header.Get("ETag"), `"`)
			if etag == "" {
				return fmt.Errorf("uploading to /documents: no ETag in the response")
			}
			refFor[&doc[0]] = etag
			return nil
		}
		if err := upload(hot); err != nil {
			return nil, err
		}
		for _, doc := range cold {
			if err := upload(doc); err != nil {
				return nil, err
			}
		}
	}

	post := func(ctx context.Context, doc []byte, spec string) ([]byte, error) {
		u := base + "/project?dataset=xmark&paths=" + url.QueryEscape(spec)
		reqBody := io.Reader(bytes.NewReader(doc))
		if ref, ok := refFor[&doc[0]]; ok {
			u += "&doc=" + url.QueryEscape(ref)
			reqBody = nil
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, reqBody)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		return body, nil
	}

	// Reference outputs, projected in-process by the library over the same
	// bundled DTD the server's dataset=xmark resolves to: one per (document,
	// spec) pair. Every response in the timed phase must match its
	// reference byte for byte — the equivalence gate.
	type pair struct {
		doc  int // -1 = hot
		spec int
	}
	refs := make(map[pair][]byte)
	for si, spec := range specs {
		pf, err := smp.Compile(xmlgen.XMarkDTD(), spec, smp.Options{})
		if err != nil {
			return nil, fmt.Errorf("compiling reference query %d: %w", si, err)
		}
		for di := -1; di < len(cold); di++ {
			doc := hot
			if di >= 0 {
				doc = cold[di]
			}
			var out bytes.Buffer
			if _, err := pf.Project(ctx, &out, bytes.NewReader(doc)); err != nil {
				return nil, fmt.Errorf("projecting reference (doc %d, query %d): %w", di, si, err)
			}
			refs[pair{di, si}] = out.Bytes()
		}
	}

	phase := func() (*serveResult, error) {
		res := &serveResult{}
		var mu sync.Mutex
		var reqs, errs, docBytes int64
		var mismatch atomic.Value // stores the first equivalence error

		deadline := time.Now().Add(scfg.duration)
		phaseCtx, cancel := context.WithDeadline(ctx, deadline)
		defer cancel()

		// Open-loop pacing: each connection fires every conns/rate seconds
		// whether or not the previous request finished (bounded by the
		// closed-loop worker itself — a slow server pushes waiting into the
		// latency numbers instead of silently lowering the offered load).
		var interval time.Duration
		if scfg.rate > 0 {
			interval = time.Duration(float64(scfg.conns) / scfg.rate * float64(time.Second))
		}

		var wg sync.WaitGroup
		for c := 0; c < scfg.conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := newSplitMix(scfg.seed + 1000 + uint64(c))
				var local []time.Duration
				var lreqs, lerrs, lbytes int64
				next := time.Now()
				for i := 0; time.Now().Before(deadline); i++ {
					if interval > 0 {
						if d := time.Until(next); d > 0 {
							select {
							case <-phaseCtx.Done():
							case <-time.After(d):
							}
						}
						next = next.Add(interval)
					}
					if phaseCtx.Err() != nil {
						break
					}
					p := pair{doc: -1, spec: i % len(specs)}
					doc := hot
					if float64(rng()%1000)/1000 >= scfg.dupRatio {
						p.doc = c
						doc = cold[c]
					}
					start := time.Now()
					body, err := post(phaseCtx, doc, specs[p.spec])
					lat := time.Since(start)
					if err != nil {
						if phaseCtx.Err() != nil {
							break // the deadline cut this request short; not an error
						}
						lerrs++
						continue
					}
					lreqs++
					lbytes += int64(len(doc))
					local = append(local, lat)
					if !bytes.Equal(body, refs[p]) {
						mismatch.Store(fmt.Errorf(
							"equivalence violation: response for (doc %d, query %d) diverges from the library's projection (%d vs %d bytes)",
							p.doc, p.spec, len(body), len(refs[p])))
						cancel()
						return
					}
				}
				mu.Lock()
				reqs += lreqs
				errs += lerrs
				docBytes += lbytes
				res.latencies = append(res.latencies, local...)
				mu.Unlock()
			}(c)
		}
		startAll := time.Now()
		wg.Wait()
		res.elapsed = time.Since(startAll)
		if err, ok := mismatch.Load().(error); ok && err != nil {
			return nil, err
		}
		res.requests, res.errors, res.docBytes = reqs, errs, docBytes
		sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
		return res, nil
	}

	arrival := "closed"
	if scfg.rate > 0 {
		arrival = fmt.Sprintf("open @ %.0f req/s", scfg.rate)
	}
	source := "doc-ref"
	if scfg.useBody {
		source = "body"
	}
	t := stats.NewTable(
		fmt.Sprintf("Serve-mode load, %d connections, %s arrival, %.0f%% duplicate documents, %s each",
			scfg.conns, arrival, 100*scfg.dupRatio, stats.FormatBytes(scfg.docSize)),
		"Source", "Requests", "Errors", "Req/s", "Doc MiB/s", "p50", "p95", "p99")
	res, err := phase()
	if err != nil {
		return nil, err
	}
	if res.requests == 0 {
		return nil, fmt.Errorf("completed zero requests in %s", scfg.duration)
	}
	mbps := float64(res.docBytes) / (1 << 20) / res.elapsed.Seconds()
	qps := float64(res.requests) / res.elapsed.Seconds()
	blog.addLatency("serve", scfg.conns, 1, source, mbps, qps,
		res.percentile(0.50), res.percentile(0.95), res.percentile(0.99))
	t.AddRow(
		source,
		fmt.Sprintf("%d", res.requests),
		fmt.Sprintf("%d", res.errors),
		stats.FormatFloat(qps),
		stats.FormatFloat(mbps),
		stats.FormatDuration(res.percentile(0.50)),
		stats.FormatDuration(res.percentile(0.95)),
		stats.FormatDuration(res.percentile(0.99)),
	)
	t.AddNote("every response verified byte-identical to the library's in-process projection of its document; Doc MiB/s counts document bytes offered")

	if scfg.metrics {
		if err := checkHealthz(ctx, client, base); err != nil {
			return nil, err
		}
		p50, p95, p99, count, err := scrapeServerLatency(ctx, client, base)
		if err != nil {
			return nil, fmt.Errorf("scraping %s/metrics: %w", base, err)
		}
		blog.addLatency("serve-server", scfg.conns, 1, "metrics", 0, 0, p50, p95, p99)
		t.AddNote(fmt.Sprintf(
			"server-side /metrics histogram over %d /project requests: p50 %s, p95 %s, p99 %s (client-side numbers above add network and queueing)",
			count, stats.FormatDuration(p50), stats.FormatDuration(p95), stats.FormatDuration(p99)))
	}
	return t, nil
}

// checkHealthz asserts that the server's liveness endpoint answers ok and
// reports its build identity — the -serve harness then records which build
// produced the numbers.
func checkHealthz(ctx context.Context, client *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("checking %s/healthz: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/healthz answered status %d", base, resp.StatusCode)
	}
	var h struct {
		Status    string `json:"status"`
		GoVersion string `json:"goversion"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("decoding %s/healthz: %w", base, err)
	}
	if h.Status != "ok" {
		return fmt.Errorf("%s/healthz status = %q, want ok", base, h.Status)
	}
	if h.GoVersion == "" {
		return fmt.Errorf("%s/healthz reports no build info (goversion missing)", base)
	}
	return nil
}

// scrapeServerLatency reads the server's /project latency histogram from the
// Prometheus exposition and estimates the percentiles the same way the live
// histogram would (obs.EstimateQuantile over the de-cumulated buckets).
// Server-side numbers exclude the network and the client's queueing, so they
// bracket the client-observed latencies from below.
func scrapeServerLatency(ctx context.Context, client *http.Client, base string) (p50, p95, p99 time.Duration, count int64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, 0, 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	type bucket struct {
		le  float64
		cum int64
	}
	var buckets []bucket
	const metric = `smpserve_http_request_seconds_bucket{`
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, metric) || !strings.Contains(line, `endpoint="/project"`) {
			continue
		}
		leStart := strings.Index(line, `le="`)
		if leStart < 0 {
			continue
		}
		rest := line[leStart+len(`le="`):]
		leEnd := strings.IndexByte(rest, '"')
		sp := strings.LastIndexByte(line, ' ')
		if leEnd < 0 || sp < 0 {
			return 0, 0, 0, 0, fmt.Errorf("malformed bucket line %q", line)
		}
		le := math.Inf(1)
		if leStr := rest[:leEnd]; leStr != "+Inf" {
			if le, err = strconv.ParseFloat(leStr, 64); err != nil {
				return 0, 0, 0, 0, fmt.Errorf("malformed le in %q: %v", line, err)
			}
		}
		cum, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("malformed value in %q: %v", line, err)
		}
		buckets = append(buckets, bucket{le: le, cum: int64(cum)})
	}
	if len(buckets) == 0 {
		return 0, 0, 0, 0, fmt.Errorf("no smpserve_http_request_seconds buckets for /project in the exposition")
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	bounds := make([]float64, 0, len(buckets)-1)
	counts := make([]int64, len(buckets))
	var prev int64
	for i, b := range buckets {
		if !math.IsInf(b.le, 1) {
			bounds = append(bounds, b.le)
		}
		counts[i] = b.cum - prev
		prev = b.cum
	}
	secs := func(q float64) time.Duration {
		return time.Duration(obs.EstimateQuantile(q, bounds, counts) * float64(time.Second))
	}
	return secs(0.50), secs(0.95), secs(0.99), buckets[len(buckets)-1].cum, nil
}

// newSplitMix returns a tiny deterministic PRNG (splitmix64) so the load
// mix is reproducible per seed without math/rand plumbing.
func newSplitMix(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// serveWorkloadSize resolves the -serve document size from the -xmark flag
// default: load tests want small hot documents, so the 8MiB projection
// default is scaled down unless the user asked for a size explicitly.
func serveWorkloadSize(cfg experiments.Config, explicit bool) int64 {
	if explicit {
		return cfg.XMarkSize
	}
	return 512 << 10
}
