// Command smpserve exposes SMP prefiltering as an HTTP service: compile
// once, serve many. Each request names a DTD and a projection-path set (or a
// query to extract the paths from); the compiled prefilter is kept in an LRU
// cache keyed by the (DTD, paths) pair, and the document — the request body
// or a server-held document — is projected through the prefilter into the
// response.
//
// Endpoints:
//
//	POST /project?dataset=xmark&paths=/*,//item/name%23
//	POST /project?dataset=medline&query=<q>{//MedlineCitation/Article}</q>
//	POST /project?paths=...        (DTD source in the X-SMP-DTD header)
//	POST /project?paths=...&doc=sha256:<hex>   (project a cached document)
//	POST /multiproject?dataset=xmark&paths=...&paths=...   (one scan, N queries)
//	POST /documents                (upload a document; answers with its ETag)
//	GET  /documents/sha256:<hex>   (fetch a cached document)
//	GET  /healthz
//	GET  /stats
//	GET  /metrics
//
// Cache keys are canonical: a path set is parsed, deduplicated and sorted
// before it is looked up, so requests naming the same projection paths in a
// different order — or extracting them from an equivalent query expression —
// share one compiled plan. /multiproject accepts one repeated paths= (or
// query=) parameter per query, projects the body for all of them in a single
// document scan (see smp.MultiPrefilter), and answers multipart/mixed with
// one part per query in parameter order; per-query counters and errors ride
// in the part headers.
//
// # Bounded and streamed inputs
//
// /project serves a bounded input on one buffered path: a document-cache
// reference, a -docroot file that can be memory-mapped, or a body whose
// Content-Length is at most 8 MiB. The document is held in memory (the body
// read into a buffer of exactly its declared length), projected into a
// buffer, and answered with Content-Length and the X-SMP-* counters as
// headers; a document that fails anywhere, even mid-way, gets a clean 422.
// Everything else — chunked or oversized bodies, docroot files that cannot
// be mapped — streams through the prefilter with constant memory, the
// counters arriving as HTTP trailers. Queries are not batched across
// requests: a client with K queries for one document sends them to
// /multiproject, which shares one scan among them.
//
// # Document cache
//
// POST /documents uploads a document into a content-addressed cache: the
// response carries the document's ETag ("sha256:<hex>", quoted), re-uploads
// of identical content are deduplicated, and an If-None-Match request header
// naming a cached digest answers 304 without reading the body. Subsequent
// projections reference the document as /project?doc=sha256:<hex> with an
// empty body — hot documents are scanned straight from a read-only memory
// mapping of the server's spool directory (internal/mmapio; heap-backed on
// platforms without mmap) instead of being re-uploaded per request. The
// cache is LRU-bounded by -doccache bytes; an evicted document answers 404
// and the client re-uploads.
//
// # Candidate index
//
// The first projection of a cached document for a given query vocabulary
// scans it once and persists the verified candidate stream as an index
// sidecar next to the spool file (smp.Index, <hash>.<fingerprint>.smpidx);
// every later ?doc= projection with a covered vocabulary replays the stored
// candidates through the automaton instead of re-searching the document —
// byte-identical output, counted as index_hits in /stats (index_skips when
// a projection had to scan, e.g. past the per-document index cap). With a
// persistent -doccachedir the server warm-restarts: spooled documents are
// digest-verified and re-admitted on startup, and their sidecars serve
// again without a single rescan — scan once, serve forever.
//
// # Admission control
//
// The body bytes the server must buffer — bounded /project bodies and
// /documents uploads — are reserved against -maxinflight before they are
// read. Beyond the budget the server sheds load with 429 + Retry-After
// instead of growing the heap. Memory-mapped documents and streamed bodies
// reserve nothing and are never shed.
//
// # Observability
//
// The document is the POST body; the projection is the response body. The
// per-run counters are reported in X-SMP-* response headers (trailers on
// streamed responses), service-level counters at /stats: requests,
// failures, cache hits, document-cache hits/bytes, index hits/skips,
// shed_requests, and more. The /stats JSON is one consistent snapshot:
// every counter group is read in a single cut under its lock, never
// assembled field-by-field while requests mutate it.
//
// GET /metrics renders the same registry (internal/obs) in Prometheus text
// exposition format: every /stats counter plus per-endpoint request counts
// and latency histograms, and a build-info gauge — /stats and /metrics
// reconcile by construction because they are two views of one instrument
// set. Requests are logged as structured log/slog lines (method, path,
// status, bytes, duration); -logformat selects text or JSON, and -slowlog
// promotes requests over the threshold to warnings. -pprof serves
// net/http/pprof on a separate admin listener, kept off the public mux.
//
// Every projection runs under the request's context: when a client
// disconnects the in-flight projection is aborted at its next chunk
// boundary and counted in /stats as "cancelled". Documents of at least
// -intramin bytes (a body must declare its Content-Length) are projected
// with intra-document parallelism (-intra scan workers splitting the single
// stream, see internal/pipeline), on /project and /multiproject alike. The
// prefilter cache can be bounded both by entry count (-cache) and by the
// total memory of the compiled plans (-cachebytes); SIGINT or SIGTERM
// triggers a graceful shutdown that drains in-flight projections (-drain).
//
// Example:
//
//	smpserve -addr :8080 -cache 64 &
//	smpgen -dataset xmark -size 8MiB > doc.xml
//	ETAG=$(curl -si --data-binary @doc.xml localhost:8080/documents | sed -n 's/^Etag: //Ip' | tr -d '\r')
//	curl -sg "localhost:8080/project?dataset=xmark&paths=//australia//description%23&doc=${ETAG//\"/}"
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/pprof"
	"net/textproto"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"smp"
	"smp/internal/mmapio"
	"smp/internal/paths"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		cache      = flag.Int("cache", 64, "maximum number of compiled prefilters kept in the LRU cache")
		cacheBytes = flag.Int64("cachebytes", 0, "byte budget for the cached compiled plans (0 = unlimited; entries are weighed by plan footprint)")
		chunk      = flag.Int("chunk", 0, "streaming window chunk size in bytes (0 = default 32 KiB)")
		drain      = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout for in-flight requests")
		intra      = flag.Int("intra", runtime.GOMAXPROCS(0), "intra-document scan workers for large request bodies (<=1 = always serial)")
		intraMin   = flag.Int64("intramin", 4<<20, "request body size in bytes from which intra-document parallelism kicks in (requires a Content-Length)")
		docroot    = flag.String("docroot", "", "directory of server-local documents: /project?doc=<name> projects the named file (memory-mapped when possible) instead of the request body")

		docCacheBytes = flag.Int64("doccache", 256<<20, "byte budget of the content-addressed document cache (0 disables /documents)")
		docCacheDir   = flag.String("doccachedir", "", "spool directory for cached documents (default: a fresh temp dir, removed on shutdown)")
		maxInflight   = flag.Int64("maxinflight", 256<<20, "total bytes of request bodies buffered at once before shedding with 429 (0 = unlimited)")

		logFormat = flag.String("logformat", "text", "structured log format: text or json")
		slowLog   = flag.Duration("slowlog", 0, "log requests at least this slow as warnings (0 disables the threshold)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this separate admin address (e.g. 127.0.0.1:6060; empty disables)")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smpserve:", err)
		os.Exit(1)
	}

	srv := newServer(*cache, *cacheBytes, smp.Options{ChunkSize: *chunk})
	srv.log = logger
	srv.slowLog = *slowLog
	srv.intraWorkers = *intra
	srv.intraMin = *intraMin
	srv.docroot = *docroot
	srv.adm.max = *maxInflight
	var cleanupSpool func()
	if *docCacheBytes > 0 {
		dir := *docCacheDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "smpserve-docs-*")
			if err != nil {
				fmt.Fprintln(os.Stderr, "smpserve:", err)
				os.Exit(1)
			}
			dir = tmp
			cleanupSpool = func() { os.RemoveAll(tmp) }
		}
		srv.docs = newDocCache(dir, *docCacheBytes)
		if *docCacheDir != "" {
			// A persistent spool directory warm-restarts the cache: documents
			// a previous process spooled are digest-verified and re-admitted,
			// their index sidecars served again on first use.
			if n := srv.docs.warmRestart(); n > 0 {
				logger.Info("warm restart re-admitted cached documents", "docs", n, "dir", dir)
			}
		}
	}

	if *pprofAddr != "" {
		go serveAdmin(*pprofAddr, logger)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smpserve:", err)
		os.Exit(1)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	logger.Info("listening",
		"addr", ln.Addr().String(),
		"cache_capacity", *cache,
		"cache_bytes", *cacheBytes,
		"doc_cache_bytes", *docCacheBytes)
	err = serveUntilSignal(&http.Server{Handler: srv.routes()}, ln, stop, *drain, logger)
	if cleanupSpool != nil {
		cleanupSpool()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smpserve:", err)
		os.Exit(1)
	}
	logger.Info("shut down cleanly")
}

// serveAdmin serves the pprof endpoints on a dedicated admin listener so
// profiling never rides the public mux. The explicit handler wiring (instead
// of net/http/pprof's DefaultServeMux side effect) keeps the admin surface
// enumerable: index, cmdline, profile, symbol, trace.
func serveAdmin(addr string, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("pprof admin listener", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("pprof admin listener failed", "err", err)
	}
}

// serveUntilSignal serves HTTP on ln until a signal arrives on stop, then
// shuts down gracefully: the listener closes immediately, in-flight requests
// get up to timeout to finish, and only then are connections cut. It returns
// nil on a clean shutdown.
func serveUntilSignal(hs *http.Server, ln net.Listener, stop <-chan os.Signal, timeout time.Duration, logger *slog.Logger) error {
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err // the listener failed before any signal arrived
	case sig := <-stop:
		logger.Info("draining in-flight requests", "signal", sig.String(), "timeout", timeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// server holds the shared state of the service: the prefilter cache, the
// compile options, the document cache, the admission budget and the
// service-level counters.
type server struct {
	cache *prefilterCache
	opts  smp.Options
	start time.Time

	// intraWorkers and intraMin select intra-document parallel projection
	// (Project with WithWorkers) for request bodies whose Content-Length
	// is at least intraMin bytes; smaller or chunked bodies stay serial.
	intraWorkers int
	intraMin     int64

	// docroot, when non-empty, lets /project?doc=<name> read the named
	// server-local file instead of the request body. Files take the
	// zero-copy mmap path (internal/mmapio) when the platform supports it.
	docroot string

	// docs is the content-addressed document cache (nil = off); adm bounds
	// the request-body bytes buffered at once.
	docs *docCache
	adm  admission

	// metrics is the obs.Registry-backed instrument set behind /metrics and
	// /stats; log and slowLog drive the structured request log.
	metrics *metrics
	log     *slog.Logger
	slowLog time.Duration
}

func newServer(cacheSize int, cacheBytes int64, opts smp.Options) *server {
	s := &server{
		cache: newPrefilterCache(cacheSize, cacheBytes),
		opts:  opts,
		start: time.Now(),
		log:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	// The func-backed instruments close over s, reading the subsystem
	// counters at scrape time; they tolerate the doc cache being wired up
	// (or left nil) after construction.
	s.metrics = newMetrics(s)
	return s
}

// routes wires up the endpoints, each behind the instrumentation middleware
// (per-endpoint counters, latency histogram, request log line).
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/project", s.instrument("/project", s.handleProject))
	mux.Handle("/multiproject", s.instrument("/multiproject", s.handleMultiProject))
	mux.Handle("/documents", s.instrument("/documents", s.handleDocuments))
	mux.Handle("/documents/", s.instrument("/documents", s.handleDocuments))
	mux.Handle("/healthz", s.instrument("/healthz", s.handleHealthz))
	mux.Handle("/stats", s.instrument("/stats", s.handleStats))
	mux.Handle("/metrics", s.instrument("/metrics", s.handleMetrics))
	return mux
}

// admit marks a request in flight; the returned outcome must be committed
// with finish exactly once (handlers defer it on entry).
func (s *server) admit() *reqOutcome {
	m := s.metrics
	m.reg.Commit(func() { m.inFlight.Add(1) })
	return &reqOutcome{}
}

// maxBufferedBody is the largest request body /project reads into memory
// and answers from the buffered path; bodies of unknown or larger size
// stream.
const maxBufferedBody = 8 << 20

// handleProject projects the request body — or, with doc=<name> against a
// configured -docroot or doc=sha256:<hex> against the document cache, a
// server-held document — through the prefilter selected by the query
// parameters. Bounded inputs are held in memory and answered by
// serveBuffered: a body of at most maxBufferedBody declared bytes, a cached
// document, a docroot file that maps. The rest streams (serveStreamed).
func (s *server) handleProject(w http.ResponseWriter, r *http.Request) {
	o := s.admit()
	defer s.finish(o)
	doc := r.URL.Query().Get("doc")
	// A doc= request carries no body, so GET is as natural as POST there.
	if r.Method != http.MethodPost && !(r.Method == http.MethodGet && doc != "") {
		s.failOutcome(w, o, http.StatusMethodNotAllowed, "POST the document to /project")
		return
	}
	pf, err := s.requestPrefilter(r)
	if err != nil {
		s.failOutcome(w, o, http.StatusBadRequest, err.Error())
		return
	}

	hash, isRef := parseDocRef(doc)
	switch {
	case doc == "":
		size := r.ContentLength
		if size < 0 || size > maxBufferedBody {
			s.serveStreamed(w, r, o, pf, r.Body, size)
			return
		}
		if !s.adm.reserve(size) {
			s.shedRequest(w, o)
			return
		}
		defer s.adm.release(size)
		s.serveBuffered(w, r, o, pf, readBody(r, o))
	case isRef:
		if !s.docs.enabled() {
			s.failOutcome(w, o, http.StatusBadRequest, "doc="+hashScheme+":... requires the server to run with -doccache")
			return
		}
		e, ok := s.docs.get(hash)
		if !ok {
			s.failOutcome(w, o, http.StatusNotFound, "document "+formatETag(hash)+" not cached; upload it to /documents first")
			return
		}
		defer s.docs.release(e)
		o.zeroCopy = e.mapping != nil
		// Replay the document's candidate index, built lazily on the first
		// projection for this vocabulary and persisted as a sidecar.
		ix := s.docIndex(e, pf)
		if ix == nil {
			o.indexSkips++ // at the per-document index cap: this run scans
		}
		s.serveBuffered(w, r, o, pf, e.data, smp.WithIndex(ix))
	default:
		if s.docroot == "" {
			s.failOutcome(w, o, http.StatusBadRequest, "doc= requires the server to run with -docroot")
			return
		}
		f, err := s.openDoc(doc)
		if err != nil {
			s.failOutcome(w, o, http.StatusNotFound, "document not found")
			return
		}
		defer f.Close()
		m, err := mmapio.Map(f)
		if err != nil {
			// An empty file, or a platform without mmap: stream it.
			size := int64(-1)
			if fi, err := f.Stat(); err == nil {
				size = fi.Size()
			}
			s.serveStreamed(w, r, o, pf, f, size)
			return
		}
		defer m.Close()
		o.zeroCopy = true
		s.serveBuffered(w, r, o, pf, m.Bytes())
	}
}

// readBody reads a request body of known length into a buffer of exactly
// that length. A client that sends fewer bytes than it declared, or goes
// away mid-upload, is counted as cancelled and its connection is dropped
// without an answer: readBody then aborts the handler (http.ErrAbortHandler),
// and the handler's deferred releases and finish still run.
func readBody(r *http.Request, o *reqOutcome) []byte {
	data := make([]byte, r.ContentLength)
	if _, err := io.ReadFull(r.Body, data); err != nil {
		o.failed, o.cancelled = true, true
		panic(http.ErrAbortHandler)
	}
	return data
}

// serveBuffered projects a document held in memory into a buffer and
// answers with Content-Length and the X-SMP-* counters as headers. Nothing
// is written before the run ends, so a document that fails anywhere, even
// mid-way, gets a clean 422.
func (s *server) serveBuffered(w http.ResponseWriter, r *http.Request, o *reqOutcome, pf *smp.Prefilter, data []byte, opts ...smp.ProjectOption) {
	var out bytes.Buffer
	opts = append(opts, s.intraOpts(pf, int64(len(data)), o)...)
	stats, err := pf.Project(r.Context(), &out, bytes.NewReader(data), opts...)
	o.addRun(stats)
	if err != nil {
		o.failed = true
		if r.Context().Err() != nil {
			o.cancelled = true // the client went away: nobody to answer
			return
		}
		s.failOutcome(w, o, http.StatusUnprocessableEntity, err.Error())
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/xml")
	h.Set("Content-Length", strconv.Itoa(out.Len()))
	setStatsHeaders(h, stats)
	n, _ := out.WriteTo(w)
	o.bytesWritten += n
}

// serveStreamed projects an input of unknown or unbounded size straight
// into the response with constant memory. The counters are only known after
// the body has streamed, so they are sent as HTTP trailers.
func (s *server) serveStreamed(w http.ResponseWriter, r *http.Request, o *reqOutcome, pf *smp.Prefilter, src io.Reader, size int64) {
	w.Header().Set("Content-Type", "application/xml")
	w.Header().Set("Trailer", "X-SMP-Bytes-Read, X-SMP-Bytes-Written, X-SMP-Char-Comparisons, X-SMP-Tags-Matched")
	// The projection writes while the body is still arriving. Without full
	// duplex, net/http drains up to 256 KiB of the unread body when the
	// response header goes out, and the engine loses those bytes.
	http.NewResponseController(w).EnableFullDuplex()
	out := &countingWriter{w: w}
	// The request context makes the projection cancellable end to end: a
	// client that disconnects mid-stream aborts the in-flight run at its
	// next chunk boundary instead of burning a core on a dead connection.
	stats, err := pf.Project(r.Context(), out, src, s.intraOpts(pf, size, o)...)
	o.addRun(stats)
	o.bytesWritten += out.n
	if err != nil {
		o.failed = true
		if r.Context().Err() != nil {
			// Client went away (or the handler deadline fired): the abort is
			// accounted separately so /stats distinguishes dead-connection
			// cleanup from real projection failures.
			o.cancelled = true
		}
		if out.n == 0 {
			// Nothing streamed yet (e.g. a document that does not conform to
			// the DTD failed up front): a clean error response is possible.
			w.Header().Del("Trailer")
			s.failOutcome(w, o, http.StatusUnprocessableEntity, err.Error())
			return
		}
		// Headers are already sent once the projection started streaming, so
		// a mid-stream failure can only be logged and the connection cut.
		s.log.Error("projection failed mid-stream", "bytes_written", out.n, "err", err)
		panic(http.ErrAbortHandler)
	}
	setStatsHeaders(w.Header(), stats)
}

// intraOpts selects intra-document parallelism for a document of size bytes
// (-1 = unknown). A run counts as intra-document only if the document is
// also large enough for the split pipeline itself — below
// pf.MinParallelInput, WithWorkers silently scans serially and /stats must
// not claim a parallel run.
func (s *server) intraOpts(pf *smp.Prefilter, size int64, o *reqOutcome) []smp.ProjectOption {
	if s.intraWorkers > 1 && size >= s.intraMin && size >= int64(pf.MinParallelInput(s.intraWorkers)) {
		o.intra = true
		return []smp.ProjectOption{smp.WithWorkers(s.intraWorkers)}
	}
	return nil
}

// handleDocuments implements the content-addressed document cache API:
// POST /documents uploads (dedup by digest, ETag in the response,
// If-None-Match skips the upload), GET /documents/sha256:<hex> fetches.
func (s *server) handleDocuments(w http.ResponseWriter, r *http.Request) {
	o := s.admit()
	defer s.finish(o)
	if !s.docs.enabled() {
		s.failOutcome(w, o, http.StatusBadRequest, "document cache disabled (run with -doccache)")
		return
	}
	switch {
	case r.Method == http.MethodPost && strings.TrimSuffix(r.URL.Path, "/") == "/documents":
		s.handleDocUpload(w, r, o)
	case r.Method == http.MethodGet || r.Method == http.MethodHead:
		ref := strings.TrimPrefix(r.URL.Path, "/documents/")
		hash, ok := parseDocRef(ref)
		if !ok {
			s.failOutcome(w, o, http.StatusBadRequest, "malformed document reference (want /documents/"+hashScheme+":<64 hex digits>)")
			return
		}
		e, ok := s.docs.get(hash)
		if !ok {
			s.failOutcome(w, o, http.StatusNotFound, "document not cached")
			return
		}
		defer s.docs.release(e)
		w.Header().Set("ETag", formatETag(hash))
		if matchesIfNoneMatch(r.Header.Get("If-None-Match"), hash) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		w.Header().Set("Content-Length", strconv.Itoa(len(e.data)))
		if r.Method == http.MethodHead {
			return
		}
		n, _ := w.Write(e.data)
		o.bytesWritten += int64(n)
	default:
		s.failOutcome(w, o, http.StatusMethodNotAllowed, "POST /documents to upload, GET /documents/"+hashScheme+":<hex> to fetch")
	}
}

// handleDocUpload stores one document. With If-None-Match naming an already
// cached digest the body is not even read — the point of content addressing
// is that the client can skip the upload entirely.
func (s *server) handleDocUpload(w http.ResponseWriter, r *http.Request, o *reqOutcome) {
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		if hash, ok := parseDocRef(inm); ok {
			if e, ok := s.docs.get(hash); ok {
				s.docs.release(e)
				w.Header().Set("ETag", formatETag(hash))
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
	}
	size := r.ContentLength
	if size < 0 {
		s.failOutcome(w, o, http.StatusLengthRequired, "upload needs a Content-Length")
		return
	}
	if !s.adm.reserve(size) {
		s.shedRequest(w, o)
		return
	}
	defer s.adm.release(size)
	data := readBody(r, o)
	o.bytesRead += int64(len(data))
	hash := hashBytes(data)
	e, err := s.docs.put(hash, data)
	if err != nil {
		s.failOutcome(w, o, http.StatusInsufficientStorage, err.Error())
		return
	}
	s.docs.release(e)
	etag := formatETag(hash)
	w.Header().Set("ETag", etag)
	w.Header().Set("Location", "/documents/"+hashScheme+":"+hash)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	fmt.Fprintf(w, "{\"etag\":%q,\"bytes\":%d}\n", etag, len(data))
}

// openDoc resolves a doc= name inside the docroot. The name is cleaned as
// a rooted path first, so ".." segments cannot escape the root, and only
// regular files are served — directories, sockets and dangling symlinks
// all answer "not found" instead of panicking downstream.
func (s *server) openDoc(name string) (*os.File, error) {
	path := filepath.Join(s.docroot, filepath.Clean("/"+name))
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		f.Close()
		return nil, fmt.Errorf("smpserve: %q is not a regular file", name)
	}
	return f, nil
}

// handleMultiProject projects one request body for K queries in a single
// scan (POST /multiproject?dataset=xmark&paths=...&paths=...). Each repeated
// paths (or query) parameter is one query; the response is multipart/mixed
// with one part per query, in parameter order. Part headers carry the
// query's canonical path set and its per-query counters; a query that failed
// carries an X-SMP-Error header and an empty body instead, without affecting
// its siblings. Per-query outputs are buffered in memory for the multipart
// framing, so this endpoint suits query fan-out on moderate documents; for
// huge single-query streams, /project streams unbuffered.
func (s *server) handleMultiProject(w http.ResponseWriter, r *http.Request) {
	o := s.admit()
	defer s.finish(o)
	if r.Method != http.MethodPost {
		s.failOutcome(w, o, http.StatusMethodNotAllowed, "POST the document to /multiproject")
		return
	}
	multi, specs, err := s.multiPrefilterFor(r)
	if err != nil {
		s.failOutcome(w, o, http.StatusBadRequest, err.Error())
		return
	}
	o.multi = true
	o.queries = int64(multi.Len())

	bufs := make([]bytes.Buffer, multi.Len())
	dsts := make([]io.Writer, multi.Len())
	for i := range bufs {
		dsts[i] = &bufs[i]
	}
	// Same intra-document policy as /project: a body large enough for the
	// parallel segment scan is served by the unified K×W pipeline. Below
	// MinParallelInput, WithWorkers silently falls back to the serial shared
	// scan and /stats must not claim a parallel run.
	opts := []smp.ProjectOption{}
	if s.intraWorkers > 1 && r.ContentLength >= s.intraMin &&
		r.ContentLength >= int64(multi.MinParallelInput(s.intraWorkers)) {
		opts = append(opts, smp.WithWorkers(s.intraWorkers))
		o.multiIntra = true
	}
	var agg smp.Stats
	qstats, runErr := multi.MultiProject(r.Context(), dsts, r.Body, append(opts, smp.WithStatsInto(&agg))...)
	o.bytesRead += agg.BytesRead
	o.bytesWritten += agg.BytesWritten
	var merr *smp.MultiError
	if runErr != nil {
		o.failed = true
		if r.Context().Err() != nil {
			// Client went away: nothing has been written yet (outputs are
			// buffered), so just account for the abort and drop the
			// connection.
			o.cancelled = true
			panic(http.ErrAbortHandler)
		}
		if !errors.As(runErr, &merr) {
			s.failOutcome(w, o, http.StatusBadRequest, runErr.Error())
			return
		}
	}

	mw := multipart.NewWriter(w)
	w.Header().Set("Content-Type", "multipart/mixed; boundary="+mw.Boundary())
	w.Header().Set("X-SMP-Queries", strconv.Itoa(multi.Len()))
	setStatsHeaders(w.Header(), agg)
	for i := range bufs {
		h := make(textproto.MIMEHeader)
		h.Set("Content-Type", "application/xml")
		h.Set("X-SMP-Query", strconv.Itoa(i))
		h.Set("X-SMP-Paths", specs[i])
		h.Set("X-SMP-Bytes-Written", strconv.FormatInt(qstats[i].BytesWritten, 10))
		h.Set("X-SMP-Tags-Matched", strconv.FormatInt(qstats[i].TagsMatched, 10))
		if merr != nil && merr.Errs[i] != nil {
			h.Set("X-SMP-Error", merr.Errs[i].Error())
		}
		pw, err := mw.CreatePart(h)
		if err != nil {
			s.log.Error("multipart framing failed", "err", err)
			panic(http.ErrAbortHandler)
		}
		if merr == nil || merr.Errs[i] == nil {
			if _, err := pw.Write(bufs[i].Bytes()); err != nil {
				s.log.Error("writing query output failed", "query", i, "err", err)
				panic(http.ErrAbortHandler)
			}
		}
	}
	if err := mw.Close(); err != nil {
		s.log.Error("closing multipart response failed", "err", err)
	}
}

// multiPrefilterFor resolves the request's DTD plus its repeated paths= (or
// query=) parameters to a merged multi-query prefilter. Each query is first
// resolved through the same LRU the /project endpoint uses — so a
// multi-query request warms (and reuses) exactly the per-query plans that
// standalone requests serve from — and the merged entry is then cached under
// the ordered per-query key list, weighed merge-aware: only the merged
// engine's tables it adds on top of the already-weighed per-query plans.
func (s *server) multiPrefilterFor(r *http.Request) (*smp.MultiPrefilter, []string, error) {
	dtdSource, err := requestDTD(r)
	if err != nil {
		return nil, nil, err
	}
	pathsList := r.URL.Query()["paths"]
	queryList := r.URL.Query()["query"]
	switch {
	case len(pathsList) == 0 && len(queryList) == 0:
		return nil, nil, fmt.Errorf("missing ?paths=... or ?query=... parameters (repeat one per query)")
	case len(pathsList) > 0 && len(queryList) > 0:
		return nil, nil, fmt.Errorf("give either ?paths= or ?query= parameters, not both")
	}
	raw, isQuery := pathsList, false
	if len(queryList) > 0 {
		raw, isQuery = queryList, true
	}
	dtdID := "dtd=inline"
	if dataset := r.URL.Query().Get("dataset"); dataset != "" {
		dtdID = "dataset=" + dataset
	}
	specs := make([]string, len(raw))
	for i, spec := range raw {
		canonical, err := canonicalSpecOne(spec, isQuery)
		if err != nil {
			return nil, nil, fmt.Errorf("query %d: %v", i, err)
		}
		specs[i] = canonical
	}
	// Canonicalization alone determines the merged key, so a warm multi
	// entry serves without touching (or recompiling) the per-query entries —
	// under capacity pressure the singles may have been evicted, and
	// resolving them first would rebuild them on every request just to
	// discard the result on this hit.
	multiKey := "\x00multi\x00" + dtdSource + "\x00" + strings.Join(specs, "\x00")
	if v, ok := s.cache.get(multiKey); ok {
		return v.(*smp.MultiPrefilter), specs, nil
	}
	pfs := make([]*smp.Prefilter, len(specs))
	for i, canonical := range specs {
		pf, err := s.cachedPrefilter(dtdSource, canonical, dtdID+" paths="+canonical)
		if err != nil {
			return nil, nil, fmt.Errorf("query %d: %v", i, err)
		}
		pfs[i] = pf
	}
	multi, err := smp.NewMultiPrefilter(pfs...)
	if err != nil {
		return nil, nil, err
	}
	// The merged entry weighs only the merged engine's tables: its per-query
	// plans are shared with (and weighed by) the single entries resolved
	// above. The known tradeoff: if capacity pressure later evicts a single
	// entry, the surviving multi entry still pins that plan, so totalBytes
	// undercounts until the multi entry is evicted too — size -cache at
	// least one above the largest expected query fan-out to keep the
	// accounting tight.
	label := fmt.Sprintf("multi %s queries=%d union=%d", dtdID, multi.Len(), multi.PlanStats().UnionKeywords)
	v := s.cache.put(multiKey, label, multi, multi.PlanStats().ScanBytes)
	return v.(*smp.MultiPrefilter), specs, nil
}

// canonicalSpecOne canonicalizes one multi-query parameter.
func canonicalSpecOne(spec string, isQuery bool) (string, error) {
	if isQuery {
		return canonicalSpec("", spec)
	}
	return canonicalSpec(spec, "")
}

// countingWriter tracks whether (and how much of) the response body has
// been written, which decides how a projection error can be reported.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// requestPrefilter resolves the request's DTD and projection spec to a
// compiled prefilter through the plan cache.
func (s *server) requestPrefilter(r *http.Request) (*smp.Prefilter, error) {
	dtdSource, err := requestDTD(r)
	if err != nil {
		return nil, err
	}
	pathSpec := r.URL.Query().Get("paths")
	querySpec := r.URL.Query().Get("query")
	switch {
	case pathSpec == "" && querySpec == "":
		return nil, fmt.Errorf("missing ?paths=... or ?query=... parameter")
	case pathSpec != "" && querySpec != "":
		return nil, fmt.Errorf("give either ?paths= or ?query=, not both")
	}
	canonical, err := canonicalSpec(pathSpec, querySpec)
	if err != nil {
		return nil, err
	}
	return s.cachedPrefilter(dtdSource, canonical, entryLabel(r, pathSpec, querySpec))
}

// canonicalSpec resolves a request's projection spec — a literal path list
// or an XQuery expression — to the canonical path-set spelling: paths
// parsed, deduplicated and sorted. Requests naming the same set in a
// different order (or extracting it from a query) therefore share one cache
// key and one compiled plan.
func canonicalSpec(pathSpec, querySpec string) (string, error) {
	var set *paths.Set
	var err error
	if pathSpec != "" {
		set, err = paths.ParseSet(pathSpec)
	} else {
		set, err = paths.ExtractQuery(querySpec)
	}
	if err != nil {
		return "", err
	}
	return set.String(), nil
}

// cachedPrefilter returns the compiled prefilter for a canonical (DTD, path
// set) key, compiling and inserting on a miss. Compilation happens outside
// the cache lock; a concurrent request for the same key may compile twice,
// but both results are equivalent and put() keeps one.
func (s *server) cachedPrefilter(dtdSource, canonical, label string) (*smp.Prefilter, error) {
	key := dtdSource + "\x00" + canonical
	if v, ok := s.cache.get(key); ok {
		return v.(*smp.Prefilter), nil
	}
	pf, err := smp.Compile(dtdSource, canonical, s.opts)
	if err != nil {
		return nil, err
	}
	return s.cache.put(key, label, pf, pf.PlanStats().MemBytes).(*smp.Prefilter), nil
}

// entryLabel builds the human-readable /stats identity of a cache entry.
// The cache key embeds the full DTD source; the label deliberately does not.
func entryLabel(r *http.Request, pathSpec, querySpec string) string {
	dtdID := "dtd=inline"
	if dataset := r.URL.Query().Get("dataset"); dataset != "" {
		dtdID = "dataset=" + dataset
	}
	if pathSpec != "" {
		return dtdID + " paths=" + pathSpec
	}
	return dtdID + " query=" + querySpec
}

// requestDTD resolves the DTD source of a request: either a bundled dataset
// named by ?dataset= or literal (percent-encoded) DTD text in the X-SMP-DTD
// header.
func requestDTD(r *http.Request) (string, error) {
	dataset := r.URL.Query().Get("dataset")
	header := r.Header.Get("X-SMP-DTD")
	switch {
	case dataset != "" && header != "":
		return "", fmt.Errorf("give either ?dataset= or the X-SMP-DTD header, not both")
	case dataset != "":
		return smp.DatasetDTD(smp.Dataset(dataset))
	case header != "":
		// Percent-decoding only: form decoding (QueryUnescape) would turn a
		// literal '+' — the DTD's one-or-more operator — into a space.
		src, err := url.PathUnescape(header)
		if err != nil {
			return "", fmt.Errorf("X-SMP-DTD header is not valid percent-encoded text: %v", err)
		}
		return src, nil
	default:
		return "", fmt.Errorf("missing DTD: give ?dataset=xmark|medline or the X-SMP-DTD header (percent-encoded DTD source)")
	}
}

// setStatsHeaders exposes the per-run counters as response trailers/headers.
func setStatsHeaders(h http.Header, stats smp.Stats) {
	h.Set("X-SMP-Bytes-Read", strconv.FormatInt(stats.BytesRead, 10))
	h.Set("X-SMP-Bytes-Written", strconv.FormatInt(stats.BytesWritten, 10))
	h.Set("X-SMP-Char-Comparisons", strconv.FormatInt(stats.CharComparisons, 10))
	h.Set("X-SMP-Tags-Matched", strconv.FormatInt(stats.TagsMatched, 10))
}

// handleHealthz answers the liveness probe with the binary's build identity
// (Go version, module version, VCS revision), so a fleet check can tell
// which build answered. "status":"ok" is kept for probes that grep for it.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	goVersion, modVersion, revision := buildInfo()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"goversion\":%q,\"version\":%q,\"revision\":%q}\n",
		goVersion, modVersion, revision)
}

// statsResponse is the JSON shape of /stats. Each counter group is one
// consistent snapshot: the request counters are copied in a single cut
// under the metrics lock (see metrics.go), the prefilter-cache and
// document-cache views each under their own lock — never assembled
// field-by-field while requests mutate them. CacheBytes is the summed
// eviction weight the -cachebytes budget counts (compiled plan plus cache
// key per entry); CacheEntries breaks each entry into its plan footprint
// and its full weight.
type statsResponse struct {
	UptimeSeconds      float64 `json:"uptime_seconds"`
	Requests           int64   `json:"requests"`
	RequestsInFlight   int64   `json:"requests_in_flight"`
	Failures           int64   `json:"failures"`
	IntraWorkers       int     `json:"intra_workers"`
	IntraMinBytes      int64   `json:"intra_min_bytes"`
	IntraRequests      int64   `json:"intra_requests"`
	MultiRequests      int64   `json:"multi_requests"`
	MultiIntraRequests int64   `json:"multi_intra_requests"`
	MultiQueries       int64   `json:"multi_queries"`
	Cancelled          int64   `json:"cancelled"`
	BytesRead          int64   `json:"bytes_read"`
	BytesWritten       int64   `json:"bytes_written"`
	ZeroCopyRuns       int64   `json:"zero_copy_runs"`
	IndexHits          int64   `json:"index_hits"`
	IndexSkips         int64   `json:"index_skips"`
	IndexSummarySkips  int64   `json:"index_summary_skips"`

	ShedRequests  int64 `json:"shed_requests"`
	BufferedBytes int64 `json:"buffered_bytes"`

	DocCache docCacheStats `json:"doc_cache"`

	CacheSize      int              `json:"cache_size"`
	CacheBytes     int64            `json:"cache_bytes"`
	CacheHits      int64            `json:"cache_hits"`
	CacheMisses    int64            `json:"cache_misses"`
	CacheEvictions int64            `json:"cache_evictions"`
	CacheEntries   []cacheEntryInfo `json:"cache_entries"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	c := s.metrics.snapshot()
	buffered, shed := s.adm.view()
	entries, size, cacheBytes, hits, misses, evictions := s.cache.view()
	resp := statsResponse{
		UptimeSeconds:      time.Since(s.start).Seconds(),
		Requests:           c.Requests,
		RequestsInFlight:   c.InFlight,
		Failures:           c.Failures,
		IntraWorkers:       s.intraWorkers,
		IntraMinBytes:      s.intraMin,
		IntraRequests:      c.IntraRequests,
		MultiRequests:      c.MultiRequests,
		MultiIntraRequests: c.MultiIntraRequests,
		MultiQueries:       c.MultiQueries,
		Cancelled:          c.Cancelled,
		BytesRead:          c.BytesRead,
		BytesWritten:       c.BytesWritten,
		ZeroCopyRuns:       c.ZeroCopyRuns,
		IndexHits:          c.IndexHits,
		IndexSkips:         c.IndexSkips,
		IndexSummarySkips:  c.IndexSummarySkips,
		ShedRequests:       shed,
		BufferedBytes:      buffered,
		DocCache:           s.docs.stats(),
		CacheSize:          size,
		CacheBytes:         cacheBytes,
		CacheHits:          hits,
		CacheMisses:        misses,
		CacheEvictions:     evictions,
		CacheEntries:       entries,
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.log.Error("encoding /stats failed", "err", err)
	}
}

// failOutcome writes a plain-text error response and marks the outcome
// failed; the deferred finish commits it.
func (s *server) failOutcome(w http.ResponseWriter, o *reqOutcome, code int, msg string) {
	o.failed = true
	http.Error(w, "smpserve: "+msg, code)
}

// shedRequest answers 429 + Retry-After: the admission budget is exhausted
// and the client should back off briefly and retry.
func (s *server) shedRequest(w http.ResponseWriter, o *reqOutcome) {
	o.failed = true
	w.Header().Set("Retry-After", "1")
	http.Error(w, "smpserve: buffered-byte budget exhausted, retry shortly", http.StatusTooManyRequests)
}
