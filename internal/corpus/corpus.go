package corpus

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"smp/internal/core"
	"smp/internal/index"
	"smp/internal/stats"
)

// Engine is the per-document prefiltering interface the runner drives;
// smp.Batch adapts its pipeline engine to it. The batch context is passed into every run, so cancelling
// the batch aborts in-flight projections at their next chunk or segment
// boundary rather than only skipping unstarted jobs.
type Engine interface {
	Project(ctx context.Context, dst io.Writer, src io.Reader) (core.Stats, error)
}

// MultiEngine is the multi-query variant of Engine: one document, K queries,
// one scan (internal/pipeline). It returns one Stats per query plus the
// run aggregate; err carries the per-query failures. A nil dsts discards
// every query's output.
type MultiEngine interface {
	MultiProject(ctx context.Context, dsts []io.Writer, src io.Reader) (query []core.Stats, run core.Stats, err error)
}

// IndexedEngine is the optional capability of an Engine that can serve a
// job from a persisted candidate index (internal/index). ix may be nil —
// the job's sidecar was missing or unreadable — in which case the engine
// must scan and count the fall-back in Stats.IndexSkips.
type IndexedEngine interface {
	Engine
	ProjectIndexed(ctx context.Context, dst io.Writer, src io.Reader, ix *index.Index) (core.Stats, error)
}

// IndexedMultiEngine is the multi-query variant of IndexedEngine.
type IndexedMultiEngine interface {
	MultiEngine
	MultiProjectIndexed(ctx context.Context, dsts []io.Writer, src io.Reader, ix *index.Index) (query []core.Stats, run core.Stats, err error)
}

// Job is one document of a batch: a name for reporting, a source, and an
// optional destination for the projected output.
type Job struct {
	// Name identifies the document in results and reports (a path, an ID).
	Name string
	// Src opens the document. It is called exactly once, by the worker that
	// picks the job up, so Jobs are cheap to build for large corpora.
	Src func() (io.ReadCloser, error)
	// Dst opens the destination for the projection. A nil Dst discards the
	// output (useful for measurement runs where only the stats matter).
	Dst func() (io.WriteCloser, error)
	// Dsts opens the per-query destinations of a multi-query batch (a runner
	// with NewMultiEngine); it must return one writer per merged query. A nil
	// Dsts discards every query's output. Single-query runs ignore it.
	Dsts func() ([]io.WriteCloser, error)
	// Cleanup, if non-nil, is called after a failed run (any error in the
	// job's Result, including a cancelled context) so file-backed
	// destinations can remove their partial output. FromFile sets it.
	Cleanup func()
	// Index, if non-nil, loads the document's persisted candidate index (a
	// decoded sidecar, see internal/index). It is called once, by the worker
	// that picks the job up, and only when the runner's engine supports
	// indexes (IndexedEngine/IndexedMultiEngine). A load error — the sidecar
	// was deleted mid-batch, or is corrupt — does not fail the job: the
	// engine scans instead and counts the fall-back in Stats.IndexSkips.
	Index func() (*index.Index, error)
}

// FromBytes builds a Job over an in-memory document that discards its
// output. Attach a Dst afterwards to keep the projection.
func FromBytes(name string, doc []byte) Job {
	return Job{
		Name: name,
		Src: func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(doc)), nil
		},
	}
}

// FromFile builds a Job that reads the document from inPath and, if outPath
// is non-empty, writes the projection to outPath. A job that fails — or is
// cancelled — mid-stream removes the partially written outPath, matching
// the ProjectFile contract: a failed run never leaves a truncated output
// file behind.
func FromFile(inPath, outPath string) Job {
	j := Job{
		Name: inPath,
		Src:  func() (io.ReadCloser, error) { return os.Open(inPath) },
	}
	if outPath != "" {
		j.Dst = func() (io.WriteCloser, error) { return os.Create(outPath) }
		j.Cleanup = func() { os.Remove(outPath) }
	}
	return j
}

// Result is the outcome of one job.
type Result struct {
	// Name is the job's name.
	Name string
	// Worker is the index of the worker that ran the job.
	Worker int
	// Stats are the runtime counters of the job's prefiltering run. For a
	// multi-query run they are the aggregate: the shared scan pass plus
	// every query's replay, with the document counted once.
	Stats core.Stats
	// QueryStats holds the per-query counters of a multi-query run, in query
	// order; nil for single-query runs.
	QueryStats []core.Stats
	// Elapsed is the wall-clock time of the run, including source open and
	// destination close.
	Elapsed time.Duration
	// Err is the first error of the run (open, prefilter, write or close).
	Err error
}

// Aggregate sums a batch's results.
type Aggregate struct {
	// Documents is the number of jobs attempted, Failed the number whose
	// Result carries an error.
	Documents int
	Failed    int
	// BytesRead and BytesWritten are summed over all successful runs.
	BytesRead    int64
	BytesWritten int64
	// CharComparisons and TagsMatched are summed over all successful runs.
	CharComparisons int64
	TagsMatched     int64
	// IndexHits, IndexSkips and IndexSummarySkips sum the persisted-index
	// counters over all successful runs: documents served by replaying a
	// sidecar, documents that fell back to the scan, and index-served
	// documents the vocabulary summary proved irrelevant.
	IndexHits         int64
	IndexSkips        int64
	IndexSummarySkips int64
	// Elapsed is the wall-clock time of the whole batch (not the sum of the
	// per-job times: with N workers it is roughly their sum divided by N).
	Elapsed time.Duration
}

// ThroughputMBps returns the aggregate input throughput of the batch.
func (a Aggregate) ThroughputMBps() float64 {
	return stats.ThroughputMBps(a.BytesRead, a.Elapsed)
}

// OutputRatio returns the summed projection size relative to the summed
// input size.
func (a Aggregate) OutputRatio() float64 {
	if a.BytesRead == 0 {
		return 0
	}
	return float64(a.BytesWritten) / float64(a.BytesRead)
}

// Runner shards jobs across a fixed pool of workers.
type Runner struct {
	// Engine is the shared prefiltering engine; every worker calls it
	// concurrently, so it must be goroutine-safe. It is required unless
	// NewEngine is set.
	Engine Engine
	// NewEngine, if non-nil, is called once per worker so that every worker
	// owns a private engine instance. It takes precedence over Engine. Build
	// the engines over one shared plan so the workers still hold a single
	// copy of the compiled tables.
	NewEngine func() Engine
	// NewMultiEngine, if non-nil, turns the batch into a multi-query batch:
	// every job's document is projected for all K merged queries in one scan
	// (job destinations come from Job.Dsts). It takes precedence over Engine
	// and NewEngine.
	NewMultiEngine func() MultiEngine
	// Workers is the pool size; values < 1 select runtime.GOMAXPROCS(0).
	Workers int
}

// Run pushes every job through the worker pool and returns the per-job
// results (in job order) plus the batch aggregate. Jobs that fail do not
// stop the batch; their error is recorded in their Result. If ctx is
// cancelled, not-yet-started jobs are marked with ctx.Err() and workers
// drain without running them; in-flight jobs abort at their engine's next
// chunk boundary and record ctx.Err() in their Result as well.
func (r *Runner) Run(ctx context.Context, jobs []Job) ([]Result, Aggregate) {
	if r.Engine == nil && r.NewEngine == nil && r.NewMultiEngine == nil {
		// Fail per the API contract (errors live in Results) instead of
		// panicking on a nil interface inside a worker goroutine.
		results := make([]Result, len(jobs))
		err := errors.New("corpus: Runner needs Engine, NewEngine or NewMultiEngine")
		for i, job := range jobs {
			results[i] = Result{Name: job.Name, Err: err}
		}
		return results, Aggregate{Documents: len(jobs), Failed: len(jobs)}
	}
	workers := r.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) && len(jobs) > 0 {
		workers = len(jobs)
	}

	results := make([]Result, len(jobs))
	indexes := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()

	for w := 0; w < workers; w++ {
		if r.NewMultiEngine != nil {
			multi := r.NewMultiEngine()
			wg.Add(1)
			go func(worker int, multi MultiEngine) {
				defer wg.Done()
				for i := range indexes {
					results[i] = runMultiJob(ctx, worker, multi, jobs[i])
				}
			}(w, multi)
			continue
		}
		engine := r.Engine
		if r.NewEngine != nil {
			engine = r.NewEngine()
		}
		wg.Add(1)
		go func(worker int, engine Engine) {
			defer wg.Done()
			for i := range indexes {
				results[i] = runJob(ctx, worker, engine, jobs[i])
			}
		}(w, engine)
	}

	for i := range jobs {
		indexes <- i
	}
	close(indexes)
	wg.Wait()

	agg := Aggregate{Documents: len(jobs), Elapsed: time.Since(start)}
	var sum core.Stats
	for _, res := range results {
		if res.Err != nil {
			agg.Failed++
			continue
		}
		sum.Add(res.Stats)
	}
	agg.BytesRead = sum.BytesRead
	agg.BytesWritten = sum.BytesWritten
	agg.CharComparisons = sum.CharComparisons
	agg.TagsMatched = sum.TagsMatched
	agg.IndexHits = sum.IndexHits
	agg.IndexSkips = sum.IndexSkips
	agg.IndexSummarySkips = sum.IndexSummarySkips
	return results, agg
}

// runJob executes one job on one worker. The result is a named return so
// the deferred Elapsed assignment lands in what the caller receives.
func runJob(ctx context.Context, worker int, engine Engine, job Job) (res Result) {
	res = Result{Name: job.Name, Worker: worker}
	timer := stats.StartTimer()
	defer func() { res.Elapsed = timer.Elapsed() }()

	if job.Dsts != nil {
		// A multi-query job in a single-query batch would silently discard
		// its per-query outputs; fail it instead.
		res.Err = errors.New("corpus: job has multi-query destinations (Dsts) but the runner is single-query")
		return res
	}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	src, err := job.Src()
	if err != nil {
		res.Err = err
		return res
	}
	defer src.Close()

	var dst io.Writer = io.Discard
	var dstCloser io.Closer
	if job.Dst != nil {
		wc, err := job.Dst()
		if err != nil {
			res.Err = err
			return res
		}
		dst = wc
		dstCloser = wc
	}

	if ie, ok := engine.(IndexedEngine); ok && job.Index != nil {
		ix, _ := job.Index() // nil on load failure: the engine scans and counts the skip
		res.Stats, res.Err = ie.ProjectIndexed(ctx, dst, src, ix)
	} else {
		res.Stats, res.Err = engine.Project(ctx, dst, src)
	}
	if dstCloser != nil {
		if cerr := dstCloser.Close(); res.Err == nil {
			res.Err = cerr
		}
	}
	if res.Err != nil && job.Cleanup != nil {
		job.Cleanup()
	}
	return res
}

// runMultiJob executes one multi-query job on one worker: the document is
// opened once, projected for every merged query in one scan, and each
// query's output goes to its own destination from Job.Dsts.
func runMultiJob(ctx context.Context, worker int, engine MultiEngine, job Job) (res Result) {
	res = Result{Name: job.Name, Worker: worker}
	timer := stats.StartTimer()
	defer func() { res.Elapsed = timer.Elapsed() }()

	if job.Dsts == nil && job.Dst != nil {
		// A single-destination job in a multi-query batch would silently
		// discard every query's output; fail it instead (a job with neither
		// destination is an intentional measurement run).
		res.Err = errors.New("corpus: job has a single destination (Dst) but the runner is multi-query; use Dsts")
		return res
	}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	src, err := job.Src()
	if err != nil {
		res.Err = err
		return res
	}
	defer src.Close()

	var dsts []io.Writer
	var closers []io.Closer
	if job.Dsts != nil {
		wcs, err := job.Dsts()
		if err != nil {
			res.Err = err
			if job.Cleanup != nil {
				job.Cleanup()
			}
			return res
		}
		dsts = make([]io.Writer, len(wcs))
		for i, wc := range wcs {
			dsts[i] = wc
			closers = append(closers, wc)
		}
	}

	if ie, ok := engine.(IndexedMultiEngine); ok && job.Index != nil {
		ix, _ := job.Index() // nil on load failure: the engine scans and counts the skip
		res.QueryStats, res.Stats, res.Err = ie.MultiProjectIndexed(ctx, dsts, src, ix)
	} else {
		res.QueryStats, res.Stats, res.Err = engine.MultiProject(ctx, dsts, src)
	}
	for _, c := range closers {
		if cerr := c.Close(); res.Err == nil {
			res.Err = cerr
		}
	}
	if res.Err != nil && job.Cleanup != nil {
		job.Cleanup()
	}
	return res
}

// FromFileMulti builds a multi-query Job: the document read from inPath,
// query i's projection written to outPaths[i] (an empty outPath discards
// that query's output). A job that fails — or is cancelled — removes every
// non-empty outPath, matching the ProjectFile contract (like FromFile, the
// removal is unconditional, so the closures hold no per-run state and the
// Job stays safe to reuse across concurrent Run calls).
func FromFileMulti(inPath string, outPaths []string) Job {
	j := Job{
		Name: inPath,
		Src:  func() (io.ReadCloser, error) { return os.Open(inPath) },
	}
	j.Dsts = func() ([]io.WriteCloser, error) {
		wcs := make([]io.WriteCloser, len(outPaths))
		for i, p := range outPaths {
			if p == "" {
				wcs[i] = nopWriteCloser{io.Discard}
				continue
			}
			f, err := os.Create(p)
			if err != nil {
				for q, wc := range wcs[:i] {
					wc.Close()
					if outPaths[q] != "" {
						os.Remove(outPaths[q])
					}
				}
				return nil, err
			}
			wcs[i] = f
		}
		return wcs, nil
	}
	j.Cleanup = func() {
		for _, p := range outPaths {
			if p != "" {
				os.Remove(p)
			}
		}
	}
	return j
}

// nopWriteCloser discards Close for writer-only destinations.
type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// Report renders a batch's results and aggregate as a stats.Table, one row
// per document plus a summary note.
func Report(title string, results []Result, agg Aggregate) *stats.Table {
	t := stats.NewTable(title, "Document", "Worker", "Input", "Output", "Output %", "Time", "Status")
	for _, res := range results {
		status := "ok"
		if res.Err != nil {
			status = res.Err.Error()
		}
		t.AddRow(
			res.Name,
			strconv.Itoa(res.Worker),
			stats.FormatBytes(res.Stats.BytesRead),
			stats.FormatBytes(res.Stats.BytesWritten),
			stats.FormatPercent(100*res.Stats.OutputRatio()),
			stats.FormatDuration(res.Elapsed),
			status,
		)
	}
	t.AddNote("%d document(s), %d failed, %s in, %s out, %s wall, %.1f MiB/s aggregate",
		agg.Documents, agg.Failed,
		stats.FormatBytes(agg.BytesRead), stats.FormatBytes(agg.BytesWritten),
		stats.FormatDuration(agg.Elapsed), agg.ThroughputMBps())
	return t
}
