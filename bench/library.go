package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"smp"
	"smp/internal/paths"
	"smp/internal/projection"
)

// The three in-process workloads (xmark-serial, medline-multi,
// corpus-index) share one shape: the parent generates the documents from
// the seed, writes them to the scratch directory (so the library takes the
// mmap path, as ProjectFile and the CLI do), computes the reference digest
// of every (document, query) output with the serial engine on an in-memory
// reader, and checks the reference engine against the tokenizing oracle on
// a sample document. A child process then compiles, warms up, runs the
// timed window and — when traced — the probes, while the parent samples its
// memory.

// batchWorkers is the caller count of the parallel workloads: the 2 CPUs of
// the machine the calibration ran on. It is fixed, not nproc, so the
// workload is the same wherever it runs.
const batchWorkers = 2

// libPlan is what the parent hands a workload child.
type libPlan struct {
	Workload string     `json:"workload"`
	Dataset  string     `json:"dataset"`
	IDs      []string   `json:"ids"`
	Specs    []string   `json:"specs"`
	Docs     []string   `json:"docs"`
	Sizes    []int64    `json:"sizes"`
	Refs     [][]string `json:"refs"` // [document][query] SHA-256 of the output
	Sample   string     `json:"sample"`
	Dir      string     `json:"dir"`
	Seconds  float64    `json:"seconds"`
	Setups   int        `json:"setups"`
	Trace    bool       `json:"trace"`
	Corrupt  bool       `json:"corrupt"`
}

// libResult is the child's answer, one JSON object on its standard output.
type libResult struct {
	Setup      []float64          `json:"setup_s"`
	Warm       window             `json:"warm"`
	Window     window             `json:"window"`
	Ref        *window            `json:"ref,omitempty"` // untraced reference window of a traced run
	Layer      map[string]float64 `json:"layer,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
	OriginUnix int64              `json:"origin_unix_ns"`
}

// window accumulates the operations of one measured interval. Its times
// are raw; scaled() turns them into the nominal machine's (yardstick.go).
type window struct {
	Ops          int64     `json:"ops"`
	Failed       int64     `json:"failed"`
	Bytes        int64     `json:"bytes"`   // document bytes of the verified operations
	Seconds      float64   `json:"seconds"` // wall time of the window
	CallMs       []float64 `json:"call_ms"` // each timed call into the program
	Speed        []float64 `json:"speed"`   // the machine speed measured right after each call
	LatMs        []float64 `json:"lat_ms"`  // each verified operation
	LatCall      []int     `json:"lat_call"`
	ZeroCopy     int64     `json:"zero_copy"`
	IndexHits    int64     `json:"index_hits"`
	IndexSkips   int64     `json:"index_skips"`
	SummarySkips int64     `json:"summary_skips"`
	BusyMs       float64   `json:"busy_ms"` // summed job time (corpus-index)
	Errors       []string  `json:"errors,omitempty"`
}

// call records one call into the program that took d, measures the
// machine's speed on threads threads right after it, and returns the
// call's index. The operations the call ran are added with it.
func (w *window) call(d time.Duration, ys *yardstick, threads int) int {
	w.CallMs = append(w.CallMs, ms(d))
	w.Speed = append(w.Speed, ys.speed(threads))
	return len(w.CallMs) - 1
}

// add records one operation of latency lat, run by call.
func (w *window) add(call int, lat time.Duration, docBytes int64, err error) {
	w.Ops++
	if err != nil {
		w.Failed++
		if len(w.Errors) < 5 {
			w.Errors = append(w.Errors, err.Error())
		}
		return
	}
	w.Bytes += docBytes
	w.LatMs = append(w.LatMs, ms(lat))
	w.LatCall = append(w.LatCall, call)
}

// scaled returns the window's summed call time and operation latencies
// (ms), scaled by the machine speed.
func (w *window) scaled() (callMs float64, latMs []float64) {
	speed := smoothed(w.Speed)
	for i, d := range w.CallMs {
		callMs += d * speed[i]
	}
	latMs = make([]float64, len(w.LatMs))
	for i, d := range w.LatMs {
		latMs[i] = d * speed[w.LatCall[i]]
	}
	return callMs, latMs
}

// rawThroughput returns the document MiB/s of the window's calls as timed.
func (w *window) rawThroughput() float64 { return mib(w.Bytes) / (sum(w.CallMs) / 1000) }

func (w *window) stats(st smp.Stats) {
	if st.ZeroCopyInput {
		w.ZeroCopy++
	}
	w.IndexHits += st.IndexHits
	w.IndexSkips += st.IndexSkips
	w.SummarySkips += st.IndexSummarySkips
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mib(n int64) float64 { return float64(n) / (1 << 20) }

// digestWriter hashes a projection as it streams.
type digestWriter struct {
	h       hash.Hash
	corrupt bool // flip the first byte (test hook, see config.corrupt)
}

func newDigest(corrupt bool) *digestWriter { return &digestWriter{h: sha256.New(), corrupt: corrupt} }

func (d *digestWriter) Write(p []byte) (int, error) {
	if d.corrupt && len(p) > 0 {
		d.corrupt = false
		d.h.Write([]byte{p[0] ^ 1})
		d.h.Write(p[1:])
		return len(p), nil
	}
	d.h.Write(p)
	return len(p), nil
}

func (d *digestWriter) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// verify compares an output digest with its reference.
func verify(d *digestWriter, want string) error {
	if got := d.sum(); got != want {
		return fmt.Errorf("output digest %.12s differs from the reference %.12s", got, want)
	}
	return nil
}

// libInputs returns a workload's dataset, queries, document count and size.
func libInputs(cfg config, name string) (smp.Dataset, []smp.Query, int, int64, error) {
	switch name {
	case xmarkSerial:
		qs, err := smp.BenchmarkQueries(smp.XMark)
		return smp.XMark, qs, 1, cfg.docSize, err
	case medlineMulti:
		qs, err := smp.BenchmarkQueries(smp.Medline)
		return smp.Medline, qs, 1, cfg.docSize, err
	case corpusIndex:
		qs, err := smp.BenchmarkQueries(smp.XMark)
		return smp.XMark, qs, cfg.corpusDocs, cfg.corpusSize, err
	}
	return "", nil, 0, 0, fmt.Errorf("no library workload %q", name)
}

// compileAll compiles one prefilter per path spec.
func compileAll(dtdSource string, specs []string) ([]*smp.Prefilter, error) {
	pfs := make([]*smp.Prefilter, len(specs))
	for i, spec := range specs {
		pf, err := smp.Compile(dtdSource, spec, smp.Options{})
		if err != nil {
			return nil, fmt.Errorf("compiling %q: %w", spec, err)
		}
		pfs[i] = pf
	}
	return pfs, nil
}

// referenceDigests projects doc with every prefilter on the serial engine
// over an in-memory reader and returns the output digests.
func referenceDigests(ctx context.Context, pfs []*smp.Prefilter, doc []byte) ([]string, error) {
	refs := make([]string, len(pfs))
	for i, pf := range pfs {
		d := newDigest(false)
		if _, err := pf.Project(ctx, d, bytes.NewReader(doc)); err != nil {
			return nil, fmt.Errorf("reference projection: %w", err)
		}
		refs[i] = d.sum()
	}
	return refs, nil
}

// oracleCheck checks the reference engine against the tokenizing
// projection oracle (internal/projection) on a sample document.
func oracleCheck(ctx context.Context, pfs []*smp.Prefilter, specs []string, sample []byte) error {
	return parallelFor(len(pfs), func(i int) error {
		var got bytes.Buffer
		if _, err := pfs[i].Project(ctx, &got, bytes.NewReader(sample)); err != nil {
			return fmt.Errorf("oracle check of %q: %w", specs[i], err)
		}
		set, err := paths.ParseSet(specs[i])
		if err != nil {
			return err
		}
		want, _, err := projection.New(set, projection.Options{}).ProjectBytes(sample)
		if err != nil {
			return fmt.Errorf("oracle projection of %q: %w", specs[i], err)
		}
		if eq, err := projection.Equal(got.Bytes(), want); err != nil || !eq {
			return fmt.Errorf("the serial engine disagrees with the projection oracle on %q (%v)", specs[i], err)
		}
		return nil
	})
}

// parallelFor runs f for 0..n-1 on batchWorkers goroutines, for the
// untimed preparation, and returns the errors.
func parallelFor(n int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, batchWorkers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for errs[w] == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				errs[w] = f(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// writeSample generates the dataset's sample document, checks the
// references against the oracle on it and returns its path.
func writeSample(ctx context.Context, env *runEnv, ds smp.Dataset, pfs []*smp.Prefilter, specs []string) (string, error) {
	sample, err := smp.GenerateBytes(ds, env.cfg.sampleSize, derive(env.cfg.seed, -1))
	if err != nil {
		return "", err
	}
	if err := oracleCheck(ctx, pfs, specs, sample); err != nil {
		return "", err
	}
	path := filepath.Join(env.dir, "sample.xml")
	return path, os.WriteFile(path, sample, 0o644)
}

// runLibrary runs one in-process workload and summarizes it.
func runLibrary(ctx context.Context, env *runEnv, name string) (*outcome, error) {
	cfg := env.cfg
	ds, queries, docs, size, err := libInputs(cfg, name)
	if err != nil {
		return nil, err
	}
	dtdSource, err := smp.DatasetDTD(ds)
	if err != nil {
		return nil, err
	}
	plan := libPlan{
		Workload: name, Dataset: string(ds), Dir: env.dir, Seconds: cfg.seconds,
		Setups: cfg.setups, Trace: cfg.trace, Corrupt: cfg.corrupt,
	}
	for _, q := range queries {
		plan.IDs = append(plan.IDs, q.ID)
		plan.Specs = append(plan.Specs, q.Paths)
	}
	pfs, err := compileAll(dtdSource, plan.Specs)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	prep := env.tr.begin("generate inputs and references", "bench", 0, 0, 0)
	plan.Docs, plan.Sizes, plan.Refs = make([]string, docs), make([]int64, docs), make([][]string, docs)
	err = parallelFor(docs, func(i int) error {
		doc, err := smp.GenerateBytes(ds, size, derive(cfg.seed, i))
		if err != nil {
			return err
		}
		plan.Docs[i] = filepath.Join(env.dir, fmt.Sprintf("doc-%03d.xml", i))
		plan.Sizes[i] = int64(len(doc))
		if err := os.WriteFile(plan.Docs[i], doc, 0o644); err != nil {
			return err
		}
		plan.Refs[i], err = referenceDigests(ctx, pfs, doc)
		return err
	})
	if err != nil {
		return nil, err
	}
	if plan.Sample, err = writeSample(ctx, env, ds, pfs, plan.Specs); err != nil {
		return nil, err
	}
	prep.end()

	planPath := filepath.Join(env.dir, "plan.json")
	data, err := json.Marshal(plan)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(planPath, data, 0o644); err != nil {
		return nil, err
	}
	prepared := time.Since(t0).Seconds()
	res, peakMiB, err := runChild(ctx, planPath, env.log)
	if err != nil {
		return nil, err
	}
	env.tr.absorb(res.Spans, res.OriginUnix)
	out := summarizeLibrary(cfg, name, res, peakMiB)
	out.phases["prepare"] = prepared
	return out, nil
}

// runChild runs a plan in a re-executed copy of this binary, sampling the
// child's memory until it exits.
func runChild(ctx context.Context, planPath string, stderr io.Writer) (*libResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+planPath)
	cmd.Stdout = &stdout
	cmd.Stderr = stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	rss := sampleRSS(cmd.Process.Pid)
	err = cmd.Wait()
	peak := rss.finish()
	if err != nil {
		return nil, 0, fmt.Errorf("workload child: %w", err)
	}
	var res libResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, 0, fmt.Errorf("workload child answer: %w", err)
	}
	return &res, peak, nil
}

// summarizeLibrary turns a child's answer into the workload's metrics.
func summarizeLibrary(cfg config, name string, res *libResult, peakMiB float64) *outcome {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, phases: map[string]float64{}}
	windows := []*window{&res.Warm, &res.Window}
	if res.Ref != nil {
		windows = append(windows, res.Ref)
	}
	for _, w := range windows {
		out.attempted += w.Ops
		out.failed += w.Failed
		out.errors = append(out.errors, w.Errors...)
	}
	w := &res.Window
	callMs, latMs := w.scaled()
	throughput := mib(w.Bytes) / (callMs / 1000)
	out.e2e["throughput_mibps"] = throughput
	out.e2e["throughput_ops"] = float64(w.Ops-w.Failed) / (callMs / 1000)
	out.speed = median(w.Speed)
	out.rawMiBps = w.rawThroughput()
	out.e2e["setup_s"] = median(res.Setup)
	out.e2e["mem_peak_mib"] = peakMiB
	latencyMetrics(out, latMs)
	checkOps(out, "the timed window", w.Ops, cfg.minOps)
	out.phases["setup_repetitions"] = float64(len(res.Setup))
	out.phases["window"] = w.Seconds
	if res.Ref == nil {
		return out
	}

	out.phases["reference_window"] = res.Ref.Seconds
	for k, v := range res.Layer {
		out.layer[k] = v
	}
	refCallMs, _ := res.Ref.scaled()
	refThroughput := mib(res.Ref.Bytes) / (refCallMs / 1000)
	out.layer["trace.overhead_pct"] = 100 * (refThroughput - throughput) / refThroughput
	if k := out.layer["scan.kernel_mibps"]; k > 0 {
		// Both raw: the kernel probe runs moments after the reference window.
		out.layer["scan.e2e_over_kernel"] = res.Ref.rawThroughput() / k
	}
	if w.Ops > 0 {
		out.layer["mmapio.zero_copy_share"] = float64(w.ZeroCopy) / float64(w.Ops)
	}
	if name == corpusIndex {
		if n := w.IndexHits + w.IndexSkips; n > 0 {
			out.layer["index.hit_ratio"] = float64(w.IndexHits) / float64(n)
		}
		if w.IndexHits > 0 {
			out.layer["index.summary_skip_ratio"] = float64(w.SummarySkips) / float64(w.IndexHits)
		}
		out.layer["corpus.job_ms_p50"], _ = percentile(latMs, 50)
		p99, ok := percentile(latMs, 99)
		if !ok {
			out.invalid = append(out.invalid, fmt.Sprintf("corpus.job_ms_p99 rests on %d samples", len(latMs)))
		}
		out.layer["corpus.job_ms_p99"] = p99
		out.layer["corpus.worker_busy_share"] = w.BusyMs / (batchWorkers * sum(w.CallMs))
		out.layer["corpus.failed_jobs"] = float64(w.Failed)
	}
	return out
}

// childMain is the entry point of a workload child process.
func childMain(planPath string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(planPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench child:", err)
		return 1
	}
	var plan libPlan
	if err := json.Unmarshal(data, &plan); err != nil {
		fmt.Fprintln(stderr, "bench child:", err)
		return 1
	}
	res, err := runPlan(context.Background(), &plan)
	if err != nil {
		fmt.Fprintf(stderr, "bench child %s: %v\n", plan.Workload, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "bench child:", err)
		return 1
	}
	return 0
}

// libState is a child's compiled workload.
type libState struct {
	plan  *libPlan
	dtd   string
	pfs   []*smp.Prefilter    // xmark-serial, corpus-index
	multi *smp.MultiPrefilter // medline-multi, and corpus-index's union vocabulary
	ys    *yardstick
}

// runPlan sets up, warms up, measures and — when traced — probes.
func runPlan(ctx context.Context, plan *libPlan) (*libResult, error) {
	var tr *tracer
	if plan.Trace {
		tr = newTracer(2)
	}
	dtdSource, err := smp.DatasetDTD(smp.Dataset(plan.Dataset))
	if err != nil {
		return nil, err
	}
	ys, err := newYardstick(filepath.Join(plan.Dir, "yardstick.bin"))
	if err != nil {
		return nil, err
	}
	defer ys.close()
	s := &libState{plan: plan, dtd: dtdSource, ys: ys}
	res := &libResult{}
	for i := 0; i < plan.Setups; i++ {
		sp := tr.begin("set-up", "compile", 0, 0, 0)
		t0 := time.Now()
		if err := s.setup(); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		sp.end()
		res.Setup = append(res.Setup, d.Seconds()*ys.speed(1))
	}
	s.cycle(ctx, &res.Warm, tr, 0)
	res.Window = s.measure(ctx, plan.Seconds, tr)
	if plan.Trace {
		ref := s.measure(ctx, plan.Seconds/2, nil)
		res.Ref = &ref
		pfs := s.pfs
		if pfs == nil {
			for i := 0; i < s.multi.Len(); i++ {
				pfs = append(pfs, s.multi.Query(i))
			}
		}
		probe := probeInput{dtd: s.dtd, specs: plan.Specs, pfs: pfs, doc: plan.Docs[0], sample: plan.Sample, dir: plan.Dir}
		if res.Layer, err = probeLayers(ctx, tr, probe); err != nil {
			return nil, err
		}
		res.Spans = tr.snapshot()
		res.OriginUnix = tr.origin.UnixNano()
	}
	return res, nil
}

// setup is the program's set-up cost: compiling the workload's queries,
// and for corpus-index building and writing the sidecars of every other
// document from the union vocabulary of all queries.
func (s *libState) setup() error {
	var err error
	switch s.plan.Workload {
	case medlineMulti:
		s.multi, err = smp.CompileMulti(s.dtd, s.plan.Specs, smp.Options{})
		return err
	case xmarkSerial:
		s.pfs, err = compileAll(s.dtd, s.plan.Specs)
		return err
	}
	if s.pfs, err = compileAll(s.dtd, s.plan.Specs); err != nil {
		return err
	}
	if s.multi, err = smp.NewMultiPrefilter(s.pfs...); err != nil {
		return err
	}
	for i := 0; i < len(s.plan.Docs); i += 2 {
		doc, err := os.ReadFile(s.plan.Docs[i])
		if err != nil {
			return err
		}
		if err := s.multi.BuildIndex(doc).WriteFile(smp.IndexSidecarPath(s.plan.Docs[i])); err != nil {
			return err
		}
	}
	return nil
}

// measure runs whole cycles until secs have passed, so every query of the
// workload's mix runs equally often.
func (s *libState) measure(ctx context.Context, secs float64, tr *tracer) window {
	var w window
	start := time.Now()
	for time.Since(start).Seconds() < secs {
		sp := tr.begin("cycle", "bench", 0, 0, 0)
		s.cycle(ctx, &w, tr, sp.id())
		sp.end()
	}
	w.Seconds = time.Since(start).Seconds()
	return w
}

// cycle runs one round of the workload's operations: every query once.
func (s *libState) cycle(ctx context.Context, w *window, tr *tracer, parent int64) {
	switch s.plan.Workload {
	case xmarkSerial:
		for qi := range s.pfs {
			s.project(ctx, w, tr, parent, qi)
		}
	case medlineMulti:
		s.multiProject(ctx, w, tr, parent)
	case corpusIndex:
		for qi := range s.pfs {
			s.batch(ctx, w, tr, parent, qi)
		}
	}
}

// project is one xmark-serial operation: Project with no options over the
// document file, the serial Fig. 4 engine on the mmap path.
func (s *libState) project(ctx context.Context, w *window, tr *tracer, parent int64, qi int) {
	sp := tr.begin("Prefilter.Project "+s.plan.IDs[qi], "core", parent, w.Ops+1, 0)
	t0 := time.Now()
	d := newDigest(s.plan.Corrupt)
	f, err := os.Open(s.plan.Docs[0])
	var st smp.Stats
	if err == nil {
		st, err = s.pfs[qi].Project(ctx, d, f)
		f.Close()
	}
	end := time.Now()
	sp.endAt(end)
	call := w.call(end.Sub(t0), s.ys, 1)
	if err == nil {
		err = verify(d, s.plan.Refs[0][qi])
	}
	w.add(call, end.Sub(t0), s.plan.Sizes[0], err)
	w.stats(st)
}

// multiProject is one medline-multi operation: all queries in one shared
// scan fanned out over batchWorkers segment scanners.
func (s *libState) multiProject(ctx context.Context, w *window, tr *tracer, parent int64) {
	sp := tr.begin("MultiPrefilter.MultiProject", "pipeline", parent, w.Ops+1, 0)
	t0 := time.Now()
	ds := make([]*digestWriter, s.multi.Len())
	dsts := make([]io.Writer, len(ds))
	for i := range ds {
		ds[i] = newDigest(s.plan.Corrupt)
		dsts[i] = ds[i]
	}
	var agg smp.Stats
	f, err := os.Open(s.plan.Docs[0])
	if err == nil {
		_, err = s.multi.MultiProject(ctx, dsts, f, smp.WithWorkers(batchWorkers), smp.WithStatsInto(&agg))
		f.Close()
	}
	end := time.Now()
	sp.endAt(end)
	call := w.call(end.Sub(t0), s.ys, batchWorkers)
	for i := 0; err == nil && i < len(ds); i++ {
		err = verify(ds[i], s.plan.Refs[0][i])
	}
	w.add(call, end.Sub(t0), s.plan.Sizes[0], err)
	w.stats(agg)
}

// jobTimes is what the wrapped job callbacks observe of one batch job. The
// runner reports no per-job time of its own: BatchResult.Elapsed is always
// zero (see README.md), so the benchmark times each job from the source
// open to the destination close.
type jobTimes struct {
	start, end       time.Time
	idxStart, idxEnd time.Time
	d                *digestWriter
}

// closeHook is a destination whose Close marks the job's end.
type closeHook struct {
	io.Writer
	onClose func()
}

func (c closeHook) Close() error {
	c.onClose()
	return nil
}

// batch is one corpus-index pass: every document through smp.Batch with
// its sidecar offered, half of which exist.
func (s *libState) batch(ctx context.Context, w *window, tr *tracer, parent int64, qi int) {
	times := make([]jobTimes, len(s.plan.Docs))
	jobs := make([]smp.BatchJob, len(s.plan.Docs))
	for i, path := range s.plan.Docs {
		jt := &times[i]
		job := smp.WithBatchIndex(smp.BatchFromFile(path, ""), path)
		open, load := job.Src, job.Index
		job.Src = func() (io.ReadCloser, error) {
			jt.start = time.Now()
			return open()
		}
		job.Dst = func() (io.WriteCloser, error) {
			jt.d = newDigest(s.plan.Corrupt)
			return closeHook{jt.d, func() { jt.end = time.Now() }}, nil
		}
		if tr != nil {
			job.Index = func() (*smp.Index, error) {
				jt.idxStart = time.Now()
				defer func() { jt.idxEnd = time.Now() }()
				return load()
			}
		}
		jobs[i] = job
	}
	b := smp.Batch{Prefilter: s.pfs[qi], Workers: batchWorkers}
	sp := tr.begin("Batch.Run "+s.plan.IDs[qi], "corpus", parent, 0, 0)
	t0 := time.Now()
	results, _ := b.Run(ctx, jobs)
	end := time.Now()
	sp.endAt(end)
	call := w.call(end.Sub(t0), s.ys, batchWorkers)
	for i, r := range results {
		jt := &times[i]
		err := r.Err
		if err == nil {
			err = verify(jt.d, s.plan.Refs[i][qi])
		}
		lat := jt.end.Sub(jt.start)
		w.add(call, lat, s.plan.Sizes[i], err)
		w.stats(r.Stats)
		if err != nil {
			continue
		}
		w.BusyMs += ms(lat)
		layer := "core"
		if r.Stats.IndexHits > 0 {
			layer = "index"
		}
		id := tr.record("job "+filepath.Base(r.Name), layer, sp.id(), w.Ops, r.Worker+1, jt.start, jt.end)
		if !jt.idxStart.IsZero() {
			tr.record("ReadIndex", "index", id, w.Ops, r.Worker+1, jt.idxStart, jt.idxEnd)
		}
	}
}
