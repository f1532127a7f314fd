package corpus

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/dtd"
	"smp/internal/fig4"
	"smp/internal/paths"
	"smp/internal/testutil"
	"smp/internal/xmlgen"
)

// testEngine compiles the XM13-style query over the XMark-like DTD and runs
// it on the paper's Fig. 4 engine.
func testEngine(t testing.TB) testutil.CorpusEngine {
	t.Helper()
	schema := dtd.MustParse(xmlgen.XMarkDTD())
	q, ok := xmlgen.QueryByID("XM13")
	if !ok {
		t.Fatal("query XM13 not found")
	}
	table, err := compile.Compile(schema, paths.MustParseSet(q.Paths), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return testutil.CorpusEngine{Prefilter: fig4.New(core.NewPlan(table, core.Options{}), fig4.Options{})}
}

// testDocs generates n distinct small XMark-like documents.
func testDocs(n int, size int64) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = xmlgen.XMarkBytes(xmlgen.Config{TargetSize: size, Seed: uint64(i + 1)})
	}
	return docs
}

// captureWriter is an in-memory WriteCloser destination.
type captureWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *captureWriter) Close() error { return nil }

func (c *captureWriter) Bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Bytes()
}

// TestRunnerMatchesSerial checks that sharding a batch across workers
// produces byte-identical projections to the serial loop, for both the
// shared-engine and the per-worker-engine configuration.
func TestRunnerMatchesSerial(t *testing.T) {
	engine := testEngine(t)
	docs := testDocs(12, 64<<10)

	want := make([][]byte, len(docs))
	for i, doc := range docs {
		out, _, err := engine.ProjectBytes(context.Background(), doc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}

	// Per-worker engines built from one plan: private buffer pools, one
	// shared copy of the automaton and tag strings.
	sharedPlan := engine.Plan()

	configs := []struct {
		name   string
		runner Runner
	}{
		{"SharedEngine", Runner{Engine: engine, Workers: 4}},
		{"PerWorkerEngine", Runner{NewEngine: func() Engine { return testEngine(t) }, Workers: 4}},
		{"PerWorkerSharedPlan", Runner{NewEngine: func() Engine { return testutil.CorpusEngine{Prefilter: fig4.New(sharedPlan, fig4.Options{})} }, Workers: 4}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			outs := make([]*captureWriter, len(docs))
			jobs := make([]Job, len(docs))
			for i, doc := range docs {
				outs[i] = &captureWriter{}
				job := FromBytes("doc"+strconv.Itoa(i), doc)
				out := outs[i]
				job.Dst = func() (io.WriteCloser, error) { return out, nil }
				jobs[i] = job
			}
			results, agg := cfg.runner.Run(context.Background(), jobs)
			if agg.Failed != 0 {
				t.Fatalf("agg.Failed = %d, want 0 (results: %+v)", agg.Failed, results)
			}
			if agg.Documents != len(docs) {
				t.Fatalf("agg.Documents = %d, want %d", agg.Documents, len(docs))
			}
			var wantRead, wantWritten int64
			for i := range docs {
				if results[i].Name != "doc"+strconv.Itoa(i) {
					t.Fatalf("results[%d].Name = %q: results out of job order", i, results[i].Name)
				}
				if !bytes.Equal(outs[i].Bytes(), want[i]) {
					t.Errorf("doc %d: parallel projection differs from serial (%d vs %d bytes)",
						i, len(outs[i].Bytes()), len(want[i]))
				}
				wantRead += int64(len(docs[i]))
				wantWritten += int64(len(want[i]))
			}
			if agg.BytesRead != wantRead {
				t.Errorf("agg.BytesRead = %d, want %d", agg.BytesRead, wantRead)
			}
			if agg.BytesWritten != wantWritten {
				t.Errorf("agg.BytesWritten = %d, want %d", agg.BytesWritten, wantWritten)
			}
		})
	}
}

// TestRunnerJobErrorDoesNotStopBatch checks that a failing job is recorded
// in its Result while the rest of the batch completes.
func TestRunnerJobErrorDoesNotStopBatch(t *testing.T) {
	engine := testEngine(t)
	docs := testDocs(4, 16<<10)

	boom := errors.New("boom")
	jobs := []Job{
		FromBytes("ok0", docs[0]),
		{Name: "bad", Src: func() (io.ReadCloser, error) { return nil, boom }},
		FromBytes("ok1", docs[1]),
		FromBytes("ok2", docs[2]),
		FromBytes("ok3", docs[3]),
	}
	results, agg := (&Runner{Engine: engine, Workers: 2}).Run(context.Background(), jobs)
	if agg.Failed != 1 {
		t.Fatalf("agg.Failed = %d, want 1", agg.Failed)
	}
	if !errors.Is(results[1].Err, boom) {
		t.Fatalf("results[1].Err = %v, want %v", results[1].Err, boom)
	}
	for _, i := range []int{0, 2, 3, 4} {
		if results[i].Err != nil {
			t.Errorf("results[%d].Err = %v, want nil", i, results[i].Err)
		}
	}
}

// TestRunnerContextCancelled checks that a pre-cancelled context fails every
// job with the context error instead of running it.
func TestRunnerContextCancelled(t *testing.T) {
	engine := testEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = FromBytes("doc"+strconv.Itoa(i), []byte("<site/>"))
	}
	results, agg := (&Runner{Engine: engine, Workers: 3}).Run(ctx, jobs)
	if agg.Failed != len(jobs) {
		t.Fatalf("agg.Failed = %d, want %d", agg.Failed, len(jobs))
	}
	for i, res := range results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("results[%d].Err = %v, want context.Canceled", i, res.Err)
		}
	}
}

// TestFromFile round-trips a document through the file-based job
// constructor and checks the projection written to disk against the serial
// in-memory path.
func TestFromFile(t *testing.T) {
	engine := testEngine(t)
	doc := testDocs(1, 32<<10)[0]
	dir := t.TempDir()
	in := filepath.Join(dir, "in.xml")
	out := filepath.Join(dir, "out.xml")
	if err := os.WriteFile(in, doc, 0o644); err != nil {
		t.Fatal(err)
	}

	results, agg := (&Runner{Engine: engine, Workers: 1}).Run(context.Background(), []Job{FromFile(in, out)})
	if agg.Failed != 0 {
		t.Fatalf("run failed: %v", results[0].Err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := engine.ProjectBytes(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("file projection (%d bytes) differs from serial projection (%d bytes)", len(got), len(want))
	}
}

// TestReport smoke-tests the table rendering.
func TestReport(t *testing.T) {
	engine := testEngine(t)
	jobs := []Job{FromBytes("a", testDocs(1, 8<<10)[0])}
	results, agg := (&Runner{Engine: engine, Workers: 1}).Run(context.Background(), jobs)
	got := Report("corpus", results, agg).String()
	for _, want := range []string{"corpus", "Document", "a", "ok", "1 document(s), 0 failed"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

// cancellingSource produces an endless keyword-free stream and cancels the
// batch context after cancelAt bytes; only context cancellation can end the
// run, so the test proves in-flight jobs abort at a chunk boundary.
type cancellingSource struct {
	produced int
	cancelAt int
	cancel   context.CancelFunc
	mu       *sync.Mutex
}

func (r *cancellingSource) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	r.produced += len(p)
	if r.produced >= r.cancelAt {
		r.mu.Lock()
		if r.cancel != nil {
			r.cancel()
			r.cancel = nil
		}
		r.mu.Unlock()
	}
	return len(p), nil
}

func (r *cancellingSource) Close() error { return nil }

// TestRunnerCancelsInFlightJobs checks that cancelling the batch context
// aborts jobs that are already running, not only unstarted ones.
func TestRunnerCancelsInFlightJobs(t *testing.T) {
	engine := testEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mu sync.Mutex
	jobs := make([]Job, 3)
	for i := range jobs {
		src := &cancellingSource{cancelAt: 256 << 10, cancel: cancel, mu: &mu}
		jobs[i] = Job{
			Name: "endless" + strconv.Itoa(i),
			Src:  func() (io.ReadCloser, error) { return src, nil },
		}
	}
	results, agg := (&Runner{Engine: engine, Workers: 3}).Run(ctx, jobs)
	if agg.Failed != len(jobs) {
		t.Fatalf("agg.Failed = %d, want %d", agg.Failed, len(jobs))
	}
	for i, res := range results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("results[%d].Err = %v, want context.Canceled", i, res.Err)
		}
	}
}
