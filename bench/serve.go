package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"smp"
)

// The serve-mixed workload drives a real smpserve process, built from the
// checkout under test and started with its default flags, over loopback
// HTTP with batchWorkers connections from this one process. It is the only
// workload through HTTP, admission control, the coalescer, the document
// cache, the plan LRU and lazily built sidecars.

// Request kinds of the mix.
const (
	kindRef    = iota // GET /project?doc=sha256:… of a cached document
	kindBody          // POST /project with a never-cached body
	kindUpload        // POST /documents of a fresh document
)

var kindNames = [...]string{"GET /project?doc", "POST /project", "POST /documents"}

// serveQueries are the mix's six XMark queries: selective and wide
// projections over every section of the document.
var serveQueries = []string{"XM2", "XM5", "XM7", "XM10", "XM13", "XM19"}

const (
	// freshSlots is how many of the most recently uploaded fresh documents
	// the GET share also targets.
	freshSlots = 4
	// bodyPool and freshBases are the distinct POST /project bodies and
	// fresh-upload base documents; every upload is made unique by a
	// leading comment, which no projection copies.
	bodyPool   = 32
	freshBases = 8
	// openShare is the open-loop share of the timed window; the closed
	// loop takes the rest.
	openShare = 0.6
	// maxGenLag is the open-loop generator's p99 lateness beyond which the
	// schedule, not the server, would be measured: more than the median
	// request takes. With the server busy on both CPUs the generator wakes
	// up to about 2 ms late at p99.
	maxGenLag = 5 * time.Millisecond
)

// request is one entry of the seeded schedule.
type request struct {
	at   time.Duration // open-loop due time from the phase start
	kind int
	doc  int // kindRef: hot document, or hotDocs+k for the k-th most recent fresh upload; kindBody: body; kindUpload: base
	spec int
}

// mix generates the seeded request sequence: 70% GET by reference (half of
// them to hot document 0), 20% POST /project bodies, 10% fresh uploads,
// with Poisson arrivals at rate per second.
type mix struct {
	r    splitmix64
	rate float64
	at   time.Duration
	hot  int
}

func newMix(seed uint64, rate float64, hot int) *mix {
	return &mix{r: splitmix64{derive(seed, 1<<30)}, rate: rate, hot: hot}
}

func (m *mix) next() request {
	m.at += time.Duration(-math.Log(1-m.r.float()) / m.rate * float64(time.Second))
	req := request{at: m.at, spec: m.r.intn(len(serveQueries))}
	switch u := m.r.float(); {
	case u < 0.7:
		req.kind = kindRef
		if m.r.float() >= 0.5 {
			req.doc = 1 + m.r.intn(m.hot-1+freshSlots)
		}
	case u < 0.9:
		req.kind, req.doc = kindBody, m.r.intn(bodyPool)
	default:
		req.kind, req.doc = kindUpload, m.r.intn(freshBases)
	}
	return req
}

// openSchedule takes the requests due within dur of the phase start.
func (m *mix) openSchedule(dur time.Duration) []request {
	var sched []request
	origin := m.at
	for {
		r := m.next()
		r.at -= origin
		if r.at >= dur {
			return sched
		}
		sched = append(sched, r)
	}
}

// serveDoc is one document of the mix with its reference output digest per
// query.
type serveDoc struct {
	data []byte
	hash string // hex SHA-256, the server's content address
	refs []string
}

type serveInputs struct {
	specs  []string
	pfs    []*smp.Prefilter
	hot    []serveDoc
	bodies []serveDoc
	bases  []serveDoc
	hot0   string // hot document 0 on disk, for the probes
	sample string
}

// freshDoc is the i-th fresh upload of a base document.
func freshDoc(base []byte, i int) []byte {
	prefix := fmt.Sprintf("<!-- fresh upload %d -->\n", i)
	return append([]byte(prefix), base...)
}

// makeServeInputs generates the mix's documents and their references.
func makeServeInputs(ctx context.Context, env *runEnv) (*serveInputs, error) {
	cfg := env.cfg
	in := &serveInputs{}
	for _, id := range serveQueries {
		q, ok := smp.QueryByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown query %s", id)
		}
		in.specs = append(in.specs, q.Paths)
	}
	dtdSource, err := smp.DatasetDTD(smp.XMark)
	if err != nil {
		return nil, err
	}
	if in.pfs, err = compileAll(dtdSource, in.specs); err != nil {
		return nil, err
	}
	gen := func(n int, size int64, stream int) ([]serveDoc, error) {
		docs := make([]serveDoc, n)
		return docs, parallelFor(n, func(i int) error {
			data, err := smp.GenerateBytes(smp.XMark, size, derive(cfg.seed, stream+i))
			if err != nil {
				return err
			}
			refs, err := referenceDigests(ctx, in.pfs, data)
			sum := sha256.Sum256(data)
			docs[i] = serveDoc{data: data, hash: hex.EncodeToString(sum[:]), refs: refs}
			return err
		})
	}
	if in.hot, err = gen(cfg.hotDocs, cfg.hotSize, 1000); err != nil {
		return nil, err
	}
	if in.bodies, err = gen(bodyPool, cfg.bodySize, 2000); err != nil {
		return nil, err
	}
	if in.bases, err = gen(freshBases, cfg.bodySize, 3000); err != nil {
		return nil, err
	}
	// A fresh upload must project exactly like its base: the leading
	// comment lies outside every projection.
	for b, base := range in.bases {
		refs, err := referenceDigests(ctx, in.pfs, freshDoc(base.data, 0))
		if err != nil {
			return nil, err
		}
		for s := range refs {
			if refs[s] != base.refs[s] {
				return nil, fmt.Errorf("fresh upload of base %d projects differently from its base for %s", b, serveQueries[s])
			}
		}
	}
	in.hot0 = filepath.Join(env.dir, "hot-0.xml")
	if err := os.WriteFile(in.hot0, in.hot[0].data, 0o644); err != nil {
		return nil, err
	}
	in.sample, err = writeSample(ctx, env, smp.XMark, in.pfs, in.specs)
	return in, err
}

// buildServer builds cmd/smpserve of the checkout at root.
func buildServer(ctx context.Context, root, out string, log io.Writer) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/smpserve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building smpserve: %w", err)
	}
	return nil
}

// serverProc is a running smpserve.
type serverProc struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed once stderr hits EOF
}

// startServer starts smpserve on a free loopback port with its default
// flags and waits until /healthz answers. Its document spool lands in tmp.
func startServer(ctx context.Context, bin, tmp string) (*serverProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &serverProc{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			if addr, ok := listenAddr(sc.Text()); ok && !found {
				addrc <- addr
				found = true
			}
		}
		if !found {
			addrc <- ""
		}
		io.Copy(io.Discard, stderr) // a line too long for the scanner
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(10 * time.Second):
	case <-ctx.Done():
	}
	if addr == "" {
		s.stop()
		return nil, errors.New("smpserve did not report its listening address")
	}
	s.base = "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			s.stop()
			return nil, fmt.Errorf("smpserve /healthz not ok: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// listenAddr extracts addr=… from smpserve's "listening" log line.
func listenAddr(line string) (string, bool) {
	if !strings.Contains(line, "msg=listening") {
		return "", false
	}
	for _, f := range strings.Fields(line) {
		if a, ok := strings.CutPrefix(f, "addr="); ok {
			return a, true
		}
	}
	return "", false
}

// stop shuts the server down gracefully and waits for it to exit.
func (s *serverProc) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-s.drained
		done <- s.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-done
		return errors.New("smpserve did not shut down within 15s")
	}
}

// loadClient issues and verifies the mix's requests.
type loadClient struct {
	base    string
	hc      *http.Client
	in      *serveInputs
	corrupt bool

	mu    sync.Mutex
	fresh []freshRef // completed fresh uploads, newest last
}

type freshRef struct {
	hash string
	base int
}

func newLoadClient(base string, in *serveInputs, corrupt bool) *loadClient {
	tr := &http.Transport{
		MaxConnsPerHost:     batchWorkers,
		MaxIdleConnsPerHost: batchWorkers,
		DisableCompression:  true,
	}
	return &loadClient{base: base, in: in, corrupt: corrupt, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// reply is the verified outcome of one request.
type reply struct {
	kind      int
	projected int64 // document bytes projected (0 for uploads)
	batch     int   // X-SMP-Coalesced-Batch, 0 when absent
	err       error
}

// do issues request r, the i-th of the run.
func (c *loadClient) do(ctx context.Context, i int, r request) reply {
	rep := reply{kind: r.kind}
	spec := url.QueryEscape(c.in.specs[r.spec])
	switch r.kind {
	case kindRef:
		hash, doc := c.resolve(r.doc)
		rep.projected = int64(len(doc.data))
		rep.batch, rep.err = c.project(ctx, http.MethodGet, "/project?dataset=xmark&doc=sha256:"+hash+"&paths="+spec, nil, doc.refs[r.spec])
	case kindBody:
		doc := &c.in.bodies[r.doc]
		rep.projected = int64(len(doc.data))
		rep.batch, rep.err = c.project(ctx, http.MethodPost, "/project?dataset=xmark&paths="+spec, doc.data, doc.refs[r.spec])
	case kindUpload:
		var hash string
		if hash, rep.err = c.upload(ctx, freshDoc(c.in.bases[r.doc].data, i)); rep.err == nil {
			c.mu.Lock()
			c.fresh = append(c.fresh, freshRef{hash, r.doc})
			if len(c.fresh) > freshSlots {
				c.fresh = c.fresh[1:]
			}
			c.mu.Unlock()
		}
	}
	return rep
}

// resolve maps a schedule document slot to a cached document: a hot one,
// or the k-th most recent completed fresh upload (a hot one while fewer
// uploads have completed).
func (c *loadClient) resolve(slot int) (string, *serveDoc) {
	hot := len(c.in.hot)
	if slot < hot {
		return c.in.hot[slot].hash, &c.in.hot[slot]
	}
	k := slot - hot
	c.mu.Lock()
	defer c.mu.Unlock()
	if k < len(c.fresh) {
		f := c.fresh[len(c.fresh)-1-k]
		return f.hash, &c.in.bases[f.base]
	}
	d := &c.in.hot[(k+1)%hot]
	return d.hash, d
}

// project issues one /project request and verifies the output digest.
func (c *loadClient) project(ctx context.Context, method, path string, body []byte, want string) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	d := newDigest(c.corrupt)
	_, err = io.Copy(d, resp.Body)
	resp.Body.Close()
	batch, _ := strconv.Atoi(resp.Header.Get("X-SMP-Coalesced-Batch"))
	switch {
	case err != nil:
		return batch, err
	case resp.StatusCode != http.StatusOK:
		return batch, fmt.Errorf("%s %s: status %d", method, path[:strings.IndexByte(path, '?')], resp.StatusCode)
	}
	return batch, verify(d, want)
}

// upload stores a document and checks the content address it answers with.
func (c *loadClient) upload(ctx context.Context, data []byte) (string, error) {
	sum := sha256.Sum256(data)
	hash := hex.EncodeToString(sum[:])
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/documents", bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("POST /documents: status %d", resp.StatusCode)
	}
	if etag := resp.Header.Get("ETag"); etag != `"sha256:`+hash+`"` {
		return "", fmt.Errorf("POST /documents: ETag %s is not the content address", etag)
	}
	return hash, nil
}

// scrape fetches /metrics and returns its samples and how long it took.
func (c *loadClient) scrape(ctx context.Context) (map[string]float64, time.Duration, error) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(string(text)), d, nil
}

// parseMetrics reads Prometheus text exposition into series → value.
func parseMetrics(text string) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// phaseStats accumulates one load phase.
type phaseStats struct {
	mu        sync.Mutex
	ops       int64
	failed    int64
	projected int64
	lat       []float64    // ms: from the due time (open loop) or the send (closed loop)
	service   [3][]float64 // ms from the send, per request kind
	batches   []int        // coalesced batch sizes of /project responses
	genLag    []float64    // ms the generator woke after a due time
	backlog   []int        // requests due but not yet sent, every backlogEvery
	seconds   float64
	errors    []string
}

const backlogEvery = 10 * time.Millisecond

func (p *phaseStats) add(rep reply, lat, service time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ops++
	if rep.err != nil {
		p.failed++
		if len(p.errors) < 5 {
			p.errors = append(p.errors, rep.err.Error())
		}
		return
	}
	p.projected += rep.projected
	p.lat = append(p.lat, ms(lat))
	p.service[rep.kind] = append(p.service[rep.kind], ms(service))
	if rep.kind != kindUpload {
		p.batches = append(p.batches, rep.batch)
	}
}

// warm is the set-up's load: upload the hot documents, then project each
// (hot document, query) pair once, which also compiles the plans and
// builds the sidecars lazily.
func (c *loadClient) warm(ctx context.Context) *phaseStats {
	ps := &phaseStats{}
	for _, d := range c.in.hot {
		t0 := time.Now()
		hash, err := c.upload(ctx, d.data)
		if err == nil && hash != d.hash {
			err = errors.New("hot document uploaded under another address")
		}
		ps.add(reply{kind: kindUpload, err: err}, time.Since(t0), time.Since(t0))
	}
	for i := range c.in.hot {
		for s := range c.in.specs {
			t0 := time.Now()
			ps.add(c.do(ctx, 0, request{kind: kindRef, doc: i, spec: s}), time.Since(t0), time.Since(t0))
		}
	}
	return ps
}

// openLoop sends sched on its due times over batchWorkers connections and
// times each request from its due time, so a stall also delays the
// requests queued behind it. first numbers the phase's requests.
func (c *loadClient) openLoop(ctx context.Context, sched []request, first int, tr *tracer, parent int64) *phaseStats {
	ps := &phaseStats{}
	start := time.Now()
	var next, dispatched atomic.Int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(backlogEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			el := time.Since(start)
			due := sort.Search(len(sched), func(i int) bool { return sched[i].at > el })
			ps.mu.Lock()
			ps.backlog = append(ps.backlog, due-int(dispatched.Load()))
			ps.mu.Unlock()
		}
	}()
	var wg sync.WaitGroup
	for lane := 1; lane <= batchWorkers; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				r := sched[i]
				due := start.Add(r.at)
				queued := true
				if time.Now().Before(due) {
					sleepUntil(due)
					lag := time.Since(due)
					ps.mu.Lock()
					ps.genLag = append(ps.genLag, ms(lag))
					ps.mu.Unlock()
					queued = false
				}
				dispatched.Add(1)
				sent := time.Now()
				rep := c.do(ctx, first+i, r)
				end := time.Now()
				ps.add(rep, end.Sub(due), end.Sub(sent))
				req := int64(first + i + 1)
				if queued {
					tr.record("queued", "bench", parent, req, lane, due, sent)
				}
				tr.record(kindNames[r.kind], "smpserve", parent, req, lane, sent, end)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	ps.seconds = time.Since(start).Seconds()
	return ps
}

// sleepUntil blocks the calling thread in the kernel until t. The
// generator's lateness is part of every open-loop latency: the runtime's
// timers wake short sleeps up to a millisecond late, and spinning out the
// last stretch instead takes a CPU from the server under test, whose
// latencies then move with how the two happen to share the machine.
// nanosleep wakes within a quarter millisecond at p99 and burns nothing.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: sleep the rest
	}
}

// closedLoop sends the mix's next request as soon as a connection is free,
// for secs. first numbers the phase's requests; it returns the next free
// number.
func (c *loadClient) closedLoop(ctx context.Context, m *mix, secs float64, first int, tr *tracer, parent int64) (*phaseStats, int) {
	ps := &phaseStats{}
	var mu sync.Mutex
	n := first
	start := time.Now()
	deadline := start.Add(time.Duration(secs * float64(time.Second)))
	var wg sync.WaitGroup
	for lane := 1; lane <= batchWorkers; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				mu.Lock()
				r, i := m.next(), n
				n++
				mu.Unlock()
				sent := time.Now()
				rep := c.do(ctx, i, r)
				end := time.Now()
				ps.add(rep, end.Sub(sent), end.Sub(sent))
				tr.record(kindNames[r.kind], "smpserve", parent, int64(i+1), lane, sent, end)
			}
		}()
	}
	wg.Wait()
	ps.seconds = time.Since(start).Seconds()
	return ps, n
}

// serveWindow is one measured window: an open-loop phase, then a
// closed-loop phase, with /metrics scraped around each.
type serveWindow struct {
	open, closed   *phaseStats
	before, middle map[string]float64 // scrapes before and after the open loop
	after          map[string]float64 // scrape after the closed loop
	scrapes        []float64          // ms per scrape
}

// window runs one open and one closed phase over secs, continuing m.
func (c *loadClient) window(ctx context.Context, m *mix, secs float64, first int, tr *tracer) (*serveWindow, int, error) {
	w := &serveWindow{}
	scrape := func() (map[string]float64, error) {
		sp := tr.begin("GET /metrics", "obs", 0, 0, 0)
		defer sp.end()
		s, d, err := c.scrape(ctx)
		w.scrapes = append(w.scrapes, ms(d))
		return s, err
	}
	var err error
	if w.before, err = scrape(); err != nil {
		return nil, first, err
	}
	sched := m.openSchedule(time.Duration(secs * openShare * float64(time.Second)))
	sp := tr.begin(fmt.Sprintf("open loop %g req/s", m.rate), "bench", 0, 0, 0)
	w.open = c.openLoop(ctx, sched, first, tr, sp.id())
	sp.end()
	first += len(sched)
	if w.middle, err = scrape(); err != nil {
		return nil, first, err
	}
	sp = tr.begin("closed loop", "bench", 0, 0, 0)
	w.closed, first = c.closedLoop(ctx, m, secs*(1-openShare), first, tr, sp.id())
	sp.end()
	if w.after, err = scrape(); err != nil {
		return nil, first, err
	}
	return w, first, nil
}

// throughput returns the closed phase's document MiB/s. Unlike the library
// workloads' it is not scaled by the machine's speed (yardstick.go): the
// load leaves no moment in which the reference task measures the machine
// alone. Run in pauses of the closed loop every 100 ms, it read speeds a
// factor of two apart and tripled the run-to-run spread of throughput;
// run just before and after the server, it did not follow the throughput
// at all.
func (w *serveWindow) throughput() float64 { return mib(w.closed.projected) / w.closed.seconds }

// runServe runs the serve-mixed workload.
func runServe(ctx context.Context, env *runEnv) (*outcome, error) {
	cfg := env.cfg
	bin := filepath.Join(env.build, "smpserve")
	if err := buildServer(ctx, cfg.root, bin, env.log); err != nil {
		return nil, err
	}
	t0 := time.Now()
	prep := env.tr.begin("generate inputs and references", "bench", 0, 0, 0)
	in, err := makeServeInputs(ctx, env)
	prep.end()
	if err != nil {
		return nil, err
	}
	prepared := time.Since(t0).Seconds()
	tmp := filepath.Join(env.dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}

	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, phases: map[string]float64{}}
	count := func(ps *phaseStats) {
		out.attempted += ps.ops
		out.failed += ps.failed
		out.errors = append(out.errors, ps.errors...)
	}
	var srv *serverProc
	var rss *rssSampler
	var client *loadClient
	defer func() {
		if rss != nil {
			rss.finish()
		}
		if srv != nil {
			srv.stop()
		}
	}()
	var setups []float64
	for rep := 0; rep < cfg.setups; rep++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			srv = nil
		}
		sp := env.tr.begin("set-up", "smpserve", 0, 0, 0)
		t0 := time.Now()
		if srv, err = startServer(ctx, bin, tmp); err != nil {
			return nil, err
		}
		if rep == cfg.setups-1 {
			rss = sampleRSS(srv.cmd.Process.Pid)
		}
		client = newLoadClient(srv.base, in, cfg.corrupt)
		count(client.warm(ctx))
		setups = append(setups, time.Since(t0).Seconds())
		sp.end()
	}

	m := newMix(cfg.seed, cfg.rate, len(in.hot))
	win, next, err := client.window(ctx, m, cfg.seconds, 0, env.tr)
	if err != nil {
		return nil, err
	}
	count(win.open)
	count(win.closed)
	var ref *serveWindow
	if cfg.trace {
		if ref, _, err = client.window(ctx, m, cfg.seconds/2, next, nil); err != nil {
			return nil, err
		}
		count(ref.open)
		count(ref.closed)
		probe := probeInput{specs: in.specs, pfs: in.pfs, doc: in.hot0, sample: in.sample, dir: env.dir}
		if probe.dtd, err = smp.DatasetDTD(smp.XMark); err != nil {
			return nil, err
		}
		if out.layer, err = probeLayers(ctx, env.tr, probe); err != nil {
			return nil, err
		}
		for i := 0; i < probeReps; i++ {
			_, d, err := client.scrape(ctx)
			if err != nil {
				return nil, err
			}
			win.scrapes = append(win.scrapes, ms(d))
		}
	}
	peak := rss.finish()
	rss = nil

	out.e2e["throughput_mibps"] = win.throughput()
	out.rawMiBps = out.e2e["throughput_mibps"]
	out.e2e["throughput_ops"] = float64(win.closed.ops-win.closed.failed) / win.closed.seconds
	out.e2e["setup_s"] = median(setups)
	out.e2e["mem_peak_mib"] = peak
	latencyMetrics(out, win.open.lat)
	checkOps(out, "the open loop", win.open.ops, cfg.minOps)
	checkOps(out, "the closed loop", win.closed.ops, cfg.minOps)
	lagP99, _ := percentile(win.open.genLag, 99)
	out.genLagMs = lagP99
	if lagP99 > ms(maxGenLag) {
		out.invalid = append(out.invalid, fmt.Sprintf("open-loop generator p99 lateness %.3f ms exceeds %v", lagP99, maxGenLag))
	}
	if backlogGrows(win.open.backlog) {
		out.invalid = append(out.invalid, "the open-loop backlog grew: the server does not keep up with the rate")
	}
	out.phases["prepare"] = prepared
	out.phases["setup_repetitions"] = float64(len(setups))
	out.phases["open_loop"] = win.open.seconds
	out.phases["closed_loop"] = win.closed.seconds
	out.phases["open_loop_rate"] = cfg.rate
	if ref == nil {
		return out, nil
	}
	out.phases["reference_open_loop"] = ref.open.seconds
	out.phases["reference_closed_loop"] = ref.closed.seconds
	serveLayerMetrics(out.layer, win, lagP99)
	refThroughput := ref.throughput()
	out.layer["trace.overhead_pct"] = 100 * (refThroughput - win.throughput()) / refThroughput
	if k := out.layer["scan.kernel_mibps"]; k > 0 {
		out.layer["scan.e2e_over_kernel"] = refThroughput / k
	}
	return out, nil
}

// backlogGrows reports whether the requests waiting for a connection grew
// over the open loop: the mean of the last quarter of the samples exceeds
// that of the first quarter by more than the connection count.
func backlogGrows(samples []int) bool {
	q := len(samples) / 4
	if q == 0 {
		return false
	}
	mean := func(s []int) float64 {
		t := 0
		for _, v := range s {
			t += v
		}
		return float64(t) / float64(len(s))
	}
	return mean(samples[len(samples)-q:]) > mean(samples[:q])+batchWorkers
}

// serveLayerMetrics fills the smpserve, obs and server-side index metrics
// of a traced window.
func serveLayerMetrics(m map[string]float64, w *serveWindow, lagP99 float64) {
	open := w.open
	p99, _ := percentile(open.lat, 99)
	m["smpserve.latency_p99_ms"] = p99
	m["smpserve.latency_samples"] = float64(len(open.lat))
	d := func(name string) float64 { return w.after[name] - w.before[name] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	// The server's latency histogram has buckets at 0.5, 2 and 8 ms, too
	// coarse for percentiles at this load; its sum and count give the exact
	// mean of the open loop's /project requests.
	const project = `{endpoint="/project"}`
	serverMean := 1000 * ratio(w.middle["smpserve_http_request_seconds_sum"+project]-w.before["smpserve_http_request_seconds_sum"+project],
		w.middle["smpserve_http_request_seconds_count"+project]-w.before["smpserve_http_request_seconds_count"+project])
	m["smpserve.server_mean_ms"] = serverMean
	var clientSum float64
	projects := append(append([]float64(nil), open.service[kindRef]...), open.service[kindBody]...)
	for _, v := range projects {
		clientSum += v
	}
	m["smpserve.http_overhead_ms"] = ratio(clientSum, float64(len(projects))) - serverMean
	m["smpserve.ref_ms_p50"], _ = percentile(open.service[kindRef], 50)
	m["smpserve.body_ms_p50"], _ = percentile(open.service[kindBody], 50)
	m["smpserve.upload_ms_p50"], _ = percentile(open.service[kindUpload], 50)
	batches := append(append([]int(nil), open.batches...), w.closed.batches...)
	var sum, coalesced, withHeader int
	for _, b := range batches {
		if b > 0 {
			sum += b
			withHeader++
		}
		if b > 1 {
			coalesced++
		}
	}
	if withHeader > 0 {
		m["smpserve.coalesce_batch_mean"] = float64(sum) / float64(withHeader)
	}
	if len(batches) > 0 {
		m["smpserve.coalesced_share"] = float64(coalesced) / float64(len(batches))
	}
	hits, skips := d("smpserve_index_hits_total"), d("smpserve_index_skips_total")
	m["index.hit_ratio"] = ratio(hits, hits+skips)
	m["index.summary_skip_ratio"] = ratio(d("smpserve_index_summary_skips_total"), hits)
	m["smpserve.doc_cache_hit_ratio"] = ratio(d("smpserve_doc_cache_hits_total"), d("smpserve_doc_cache_hits_total")+d("smpserve_doc_cache_misses_total"))
	m["smpserve.plan_cache_hit_ratio"] = ratio(d("smpserve_plan_cache_hits_total"), d("smpserve_plan_cache_hits_total")+d("smpserve_plan_cache_misses_total"))
	m["mmapio.zero_copy_share"] = ratio(d("smpserve_zero_copy_runs_total"), d(`smpserve_http_requests_total{endpoint="/project"}`))
	m["smpserve.shed_total"] = d("smpserve_shed_requests_total")
	m["smpserve.gen_lag_ms_p99"] = lagP99
	backlogMax := 0
	for _, b := range open.backlog {
		backlogMax = max(backlogMax, b)
	}
	m["smpserve.backlog_max"] = float64(backlogMax)
	m["obs.scrape_ms"] = median(w.scrapes)
}
