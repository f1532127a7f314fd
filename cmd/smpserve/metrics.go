package main

import (
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime/debug"
	"time"

	"smp"
	"smp/internal/obs"
)

// The service telemetry is one obs.Registry serving two views: GET /metrics
// renders it in Prometheus text exposition format, and /stats renders the
// same instruments as the legacy JSON snapshot — both are consistent cuts
// of the same registry, so the two endpoints reconcile by construction.
//
// Request-lifecycle counters are committed once per request in finish(),
// inside one registry Commit group, so invariants like Failures <= Requests
// hold in every scrape. Subsystems that keep their own locked counters (the
// prefilter LRU, the document cache, admission control) surface through
// func-backed instruments read at scrape time — no double bookkeeping, no
// drift between /stats and /metrics.

// counters is the legacy /stats counter view, now assembled from the
// registry by snapshot(). The field set is part of the /stats
// compatibility surface.
type counters struct {
	InFlight int64 // requests currently being served

	Requests           int64 // completed requests (all endpoints but /healthz, /stats, /metrics)
	Failures           int64 // completed with an error response or aborted connection
	Cancelled          int64 // aborted because the client disconnected
	IntraRequests      int64 // served with intra-document parallelism
	MultiRequests      int64 // /multiproject requests
	MultiIntraRequests int64 // /multiproject served by the parallel K×W pipeline
	MultiQueries       int64 // queries served across /multiproject requests
	BytesRead          int64 // document bytes scanned
	BytesWritten       int64 // projection bytes produced
	ZeroCopyRuns       int64 // projections served from a memory mapping
	IndexHits          int64 // projections replayed from a candidate index
	IndexSkips         int64 // indexed documents that fell back to scanning
	IndexSummarySkips  int64 // index hits proven empty by the vocabulary summary
}

// endpoints instrumented with per-endpoint request counters and latency
// histograms. latencyBounds span sub-millisecond cache hits to multi-second
// scans of large documents.
var (
	endpoints     = []string{"/project", "/multiproject", "/documents", "/healthz", "/stats", "/metrics"}
	latencyBounds = obs.ExpBuckets(0.0005, 4, 8) // 0.5ms .. ~8s
)

// metrics is the service's instrument set over one obs.Registry.
type metrics struct {
	reg *obs.Registry

	inFlight  *obs.Gauge
	requests  *obs.Counter
	failures  *obs.Counter
	cancelled *obs.Counter

	intraRequests      *obs.Counter
	multiRequests      *obs.Counter
	multiIntraRequests *obs.Counter
	multiQueries       *obs.Counter

	bytesRead    *obs.Counter
	bytesWritten *obs.Counter
	zeroCopyRuns *obs.Counter

	indexHits         *obs.Counter
	indexSkips        *obs.Counter
	indexSummarySkips *obs.Counter

	httpRequests map[string]*obs.Counter
	httpLatency  map[string]*obs.Histogram
}

// newMetrics wires every instrument into a fresh registry. The func-backed
// instruments close over the server and read the subsystem counters (under
// their own locks) at scrape time, so /metrics and /stats always report the
// caches' and admission control's one source of truth.
func newMetrics(s *server) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:       reg,
		inFlight:  reg.Gauge("smpserve_requests_in_flight", "Requests currently being served."),
		requests:  reg.Counter("smpserve_requests_total", "Completed requests across the projection and document endpoints."),
		failures:  reg.Counter("smpserve_request_failures_total", "Requests completed with an error response or an aborted connection."),
		cancelled: reg.Counter("smpserve_requests_cancelled_total", "Requests aborted because the client disconnected."),

		intraRequests:      reg.Counter("smpserve_intra_requests_total", "Requests served with intra-document parallelism."),
		multiRequests:      reg.Counter("smpserve_multi_requests_total", "/multiproject requests."),
		multiIntraRequests: reg.Counter("smpserve_multi_intra_requests_total", "/multiproject requests served by the parallel KxW pipeline."),
		multiQueries:       reg.Counter("smpserve_multi_queries_total", "Queries served across /multiproject requests."),

		bytesRead:    reg.Counter("smpserve_document_bytes_read_total", "Document bytes scanned."),
		bytesWritten: reg.Counter("smpserve_projection_bytes_written_total", "Projection bytes written to responses."),
		zeroCopyRuns: reg.Counter("smpserve_zero_copy_runs_total", "Projections served from a memory mapping instead of a heap buffer."),

		indexHits:         reg.Counter("smpserve_index_hits_total", "Projections replayed from a persisted candidate index."),
		indexSkips:        reg.Counter("smpserve_index_skips_total", "Indexed documents that fell back to scanning."),
		indexSummarySkips: reg.Counter("smpserve_index_summary_skips_total", "Index replays proven empty by the per-document vocabulary summary."),

		httpRequests: make(map[string]*obs.Counter, len(endpoints)),
		httpLatency:  make(map[string]*obs.Histogram, len(endpoints)),
	}
	for _, ep := range endpoints {
		l := obs.Label{Key: "endpoint", Value: ep}
		m.httpRequests[ep] = reg.Counter("smpserve_http_requests_total", "HTTP requests by endpoint.", l)
		m.httpLatency[ep] = reg.Histogram("smpserve_http_request_seconds", "HTTP request latency in seconds by endpoint.", latencyBounds, l)
	}

	reg.GaugeFunc("smpserve_uptime_seconds", "Seconds since the server started.",
		func() int64 { return int64(time.Since(s.start).Seconds()) })

	// Prefilter LRU: the compiled-plan cache behind every endpoint.
	reg.GaugeFunc("smpserve_plan_cache_entries", "Compiled prefilters in the LRU cache.",
		func() int64 { size, _, _, _, _ := s.cache.counters(); return int64(size) })
	reg.GaugeFunc("smpserve_plan_cache_bytes", "Eviction weight of the cached compiled plans.",
		func() int64 { _, b, _, _, _ := s.cache.counters(); return b })
	reg.CounterFunc("smpserve_plan_cache_hits_total", "Prefilter cache hits.",
		func() int64 { _, _, h, _, _ := s.cache.counters(); return h })
	reg.CounterFunc("smpserve_plan_cache_misses_total", "Prefilter cache misses.",
		func() int64 { _, _, _, mi, _ := s.cache.counters(); return mi })
	reg.CounterFunc("smpserve_plan_cache_evictions_total", "Prefilter cache evictions.",
		func() int64 { _, _, _, _, e := s.cache.counters(); return e })

	// Content-addressed document cache (zero when disabled).
	reg.GaugeFunc("smpserve_doc_cache_docs", "Documents in the content-addressed cache.",
		func() int64 { return int64(s.docs.stats().Docs) })
	reg.GaugeFunc("smpserve_doc_cache_bytes", "Bytes held by the document cache.",
		func() int64 { return s.docs.stats().Bytes })
	reg.CounterFunc("smpserve_doc_cache_hits_total", "Document cache hits.",
		func() int64 { return s.docs.stats().Hits })
	reg.CounterFunc("smpserve_doc_cache_misses_total", "Document cache misses.",
		func() int64 { return s.docs.stats().Misses })
	reg.CounterFunc("smpserve_doc_cache_evictions_total", "Document cache evictions.",
		func() int64 { return s.docs.stats().Evictions })

	// Admission control: buffered-byte budget and load shedding.
	reg.GaugeFunc("smpserve_buffered_bytes", "Request bytes currently buffered under the admission budget.",
		func() int64 { b, _ := s.adm.view(); return b })
	reg.CounterFunc("smpserve_shed_requests_total", "Requests shed with 429 because the buffered-byte budget was exhausted.",
		func() int64 { _, sh := s.adm.view(); return sh })

	reg.Gauge("smpserve_build_info", "Build metadata; the value is always 1.", buildInfoLabels()...).Set(1)
	return m
}

// buildInfoLabels extracts module version, VCS revision and Go version from
// the binary's embedded build information.
func buildInfoLabels() []obs.Label {
	goVersion, modVersion, revision := buildInfo()
	return []obs.Label{
		{Key: "goversion", Value: goVersion},
		{Key: "version", Value: modVersion},
		{Key: "revision", Value: revision},
	}
}

// buildInfo reads the binary's build metadata (best effort: "unknown" where
// the build did not embed it, e.g. revision outside a VCS checkout).
func buildInfo() (goVersion, modVersion, revision string) {
	goVersion, modVersion, revision = "unknown", "unknown", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	goVersion = bi.GoVersion
	if bi.Main.Version != "" {
		modVersion = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			revision = kv.Value
		}
	}
	return
}

// snapshot returns one consistent copy of the request-lifecycle counters,
// taken as a single registry cut — the same consistency the old mutex-held
// counter struct gave /stats.
func (m *metrics) snapshot() counters {
	var c counters
	m.reg.Read(func() {
		c.InFlight = m.inFlight.Value()
		c.Requests = m.requests.Value()
		c.Failures = m.failures.Value()
		c.Cancelled = m.cancelled.Value()
		c.IntraRequests = m.intraRequests.Value()
		c.MultiRequests = m.multiRequests.Value()
		c.MultiIntraRequests = m.multiIntraRequests.Value()
		c.MultiQueries = m.multiQueries.Value()
		c.BytesRead = m.bytesRead.Value()
		c.BytesWritten = m.bytesWritten.Value()
		c.ZeroCopyRuns = m.zeroCopyRuns.Value()
		c.IndexHits = m.indexHits.Value()
		c.IndexSkips = m.indexSkips.Value()
		c.IndexSummarySkips = m.indexSummarySkips.Value()
	})
	return c
}

// reqOutcome accumulates what happened to one request; it is committed
// exactly once, as a single consistent counter update: on the handler's
// exit, or before a buffered body goes out.
type reqOutcome struct {
	committed         bool
	failed            bool
	cancelled         bool
	intra             bool
	multi             bool
	multiIntra        bool
	queries           int64
	zeroCopy          bool
	bytesRead         int64
	bytesWritten      int64
	indexHits         int64
	indexSkips        int64
	indexSummarySkips int64
}

// addRun accumulates the counters of one projection run.
func (o *reqOutcome) addRun(st smp.Stats) {
	o.bytesRead += st.BytesRead
	o.indexHits += st.IndexHits
	o.indexSkips += st.IndexSkips
	o.indexSummarySkips += st.IndexSummarySkips
	if st.ZeroCopyInput {
		o.zeroCopy = true
	}
}

// finish commits a request outcome in one registry Commit group. It is the
// only place a request reaches the Requests counter, so every handler exit
// path records exactly one completion and every scrape sees the outcome
// entirely or not at all. Later calls for the same outcome do nothing.
func (s *server) finish(o *reqOutcome) {
	if o.committed {
		return
	}
	o.committed = true
	m := s.metrics
	m.reg.Commit(func() {
		m.inFlight.Add(-1)
		m.requests.Inc()
		if o.failed {
			m.failures.Inc()
		}
		if o.cancelled {
			m.cancelled.Inc()
		}
		if o.intra {
			m.intraRequests.Inc()
		}
		if o.multi {
			m.multiRequests.Inc()
			m.multiQueries.Add(o.queries)
		}
		if o.multiIntra {
			m.multiIntraRequests.Inc()
		}
		if o.zeroCopy {
			m.zeroCopyRuns.Inc()
		}
		m.bytesRead.Add(o.bytesRead)
		m.bytesWritten.Add(o.bytesWritten)
		m.indexHits.Add(o.indexHits)
		m.indexSkips.Add(o.indexSkips)
		m.indexSummarySkips.Add(o.indexSummarySkips)
	})
}

// handleMetrics serves the Prometheus text exposition of the registry.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.reg.WritePrometheus(w); err != nil {
		s.log.Error("writing /metrics exposition", "err", err)
	}
}

// statusRecorder captures the response status and body size for the
// request log and the per-endpoint instruments. Unwrap exposes the
// underlying writer to http.ResponseController (flush, deadlines).
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streamed projections keep
// their flush behavior through the instrumentation wrapper.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// instrument wraps a handler with the per-endpoint request counter, the
// latency histogram and the structured request log line. The deferred
// observation also runs when the handler panics with http.ErrAbortHandler
// (the mid-stream failure path), recording the aborted request before the
// panic unwinds into net/http.
func (s *server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	reqs := s.metrics.httpRequests[endpoint]
	lat := s.metrics.httpLatency[endpoint]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		defer func() {
			dur := time.Since(start)
			s.metrics.reg.Commit(func() {
				reqs.Inc()
				lat.Observe(dur.Seconds())
			})
			status := sr.status
			if status == 0 {
				status = http.StatusOK
			}
			attrs := []any{
				"method", r.Method,
				"path", r.URL.Path,
				"status", status,
				"bytes", sr.bytes,
				"duration", dur,
			}
			switch {
			case s.slowLog > 0 && dur >= s.slowLog:
				s.log.Warn("slow request", attrs...)
			default:
				s.log.Info("request", attrs...)
			}
		}()
		h(sr, r)
	})
}

// newLogger builds the service logger: -logformat selects text or JSON
// handlers, both writing structured key/value lines to stderr.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -logformat %q (want text or json)", format)
	}
}
