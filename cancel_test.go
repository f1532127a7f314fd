package smp

// Cancellation tests for the v2 execution API: Project(ctx, ...) must
// return ctx.Err() promptly from the serial, parallel and batch paths, must
// not leak goroutines (checked via runtime.NumGoroutine, since the module
// is dependency-free), and ProjectFile must never leave a partial output
// file behind. Run with `go test -race` to make the pipeline checks
// meaningful.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// cancelFixture compiles a prefilter and generates one document large
// enough that a mid-stream cancellation point exists on every path.
func cancelFixture(t *testing.T) (*Prefilter, []byte) {
	t.Helper()
	dtdSource, err := DatasetDTD(XMark)
	if err != nil {
		t.Fatal(err)
	}
	// A small chunk gives the serial window and the parallel segmenter many
	// cancellation points even on a modest document.
	pf, err := Compile(dtdSource, "/*, //australia//description#", Options{ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := GenerateBytes(XMark, 512<<10, 5)
	if err != nil {
		t.Fatal(err)
	}
	return pf, doc
}

// cancelAfterReader cancels ctx once n bytes have been delivered; reads
// keep succeeding afterwards, so only the context can stop the projection.
type cancelAfterReader struct {
	r      io.Reader
	n      int
	read   int
	cancel context.CancelFunc
}

func (c *cancelAfterReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.read += n
	if c.read >= c.n && c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	return n, err
}

// waitGoroutines retries until the goroutine count drops back to the
// baseline (parallel pipelines unwind asynchronously after Project returns).
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

// TestProjectCancelledSerial cancels a serial projection mid-stream and
// checks the prompt ctx.Err() return, plus the byte-identical output of an
// uncancelled run afterwards (the pooled engine must not be poisoned).
func TestProjectCancelledSerial(t *testing.T) {
	pf, doc := cancelFixture(t)
	want := oracleProject(t, pf, doc)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	var st Stats
	_, err := pf.Project(ctx, &out,
		&cancelAfterReader{r: bytes.NewReader(doc), n: 64 << 10, cancel: cancel},
		WithStatsInto(&st))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.BytesRead == 0 {
		t.Error("WithStatsInto must report the partial counters of a cancelled run")
	}
	if st.BytesRead >= int64(len(doc)) {
		t.Errorf("cancelled run read the whole document (%d bytes): not prompt", st.BytesRead)
	}

	// A fresh, uncancelled run on the same prefilter is unaffected.
	got, _ := projectBytes(t, pf, doc)
	if !bytes.Equal(got, want) {
		t.Error("projection after a cancelled run differs")
	}

	// A pre-cancelled context returns before reading anything.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := pf.Project(pre, io.Discard, bytes.NewReader(doc)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
}

// TestProjectCancelledParallel cancels mid-stream under worker counts
// {2,4,8} and checks ctx.Err(), no goroutine leaks, and byte-identical
// output for the uncancelled control run.
func TestProjectCancelledParallel(t *testing.T) {
	pf, doc := cancelFixture(t)
	want := oracleProject(t, pf, doc)

	for _, workers := range []int{2, 4, 8} {
		workers := workers
		t.Run("workers_"+strconv.Itoa(workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var out bytes.Buffer
			_, err := pf.Project(ctx, &out,
				&cancelAfterReader{r: bytes.NewReader(doc), n: 32 << 10, cancel: cancel},
				WithWorkers(workers))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			waitGoroutines(t, before)

			var control bytes.Buffer
			if _, err := pf.Project(context.Background(), &control, bytes.NewReader(doc), WithWorkers(workers)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(control.Bytes(), want) {
				t.Error("uncancelled parallel run differs from serial projection")
			}
		})
	}
}

// TestMultiProjectCancelledMatrix cancels the unified pipeline mid-stream
// across the K×W matrix, with cancellation points chosen to land in
// different pipeline stages (during the first segment reads, mid-scan, and
// late while the replays drain), and checks the prompt context error, the
// goroutine baseline, and that the shared engine is not poisoned — an
// uncancelled run afterwards stays byte-identical to the standalone runs.
func TestMultiProjectCancelledMatrix(t *testing.T) {
	for _, k := range []int{2, 4} {
		m, doc := multiFixture(t, XMark, k, 256<<10)
		want := make([][]byte, m.Len())
		for i := range want {
			want[i] = oracleProject(t, m.Query(i), doc)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			workers := workers
			t.Run(fmt.Sprintf("k%d_w%d", k, workers), func(t *testing.T) {
				before := runtime.NumGoroutine()
				for _, at := range []int{4 << 10, len(doc) / 2, len(doc) - 512} {
					ctx, cancel := context.WithCancel(context.Background())
					_, err := m.MultiProject(ctx, nil,
						&cancelAfterReader{r: bytes.NewReader(doc), n: at, cancel: cancel},
						WithWorkers(workers), WithChunkSize(4<<10))
					cancel()
					// A cancellation landing on the final reads may lose the
					// race with a clean finish; anything else must surface
					// context.Canceled on every unfinished query.
					if err == nil && at < len(doc)-4<<10 {
						t.Fatalf("cancel@%d: run completed despite mid-stream cancellation", at)
					}
					if err != nil {
						if !errors.Is(err, context.Canceled) {
							t.Fatalf("cancel@%d: err = %v, want context.Canceled", at, err)
						}
						var merr *MultiError
						if !errors.As(err, &merr) {
							t.Fatalf("cancel@%d: err is %T, want *MultiError", at, err)
						}
					}
					waitGoroutines(t, before)
				}
				bufs := make([]bytes.Buffer, m.Len())
				dsts := make([]io.Writer, m.Len())
				for i := range bufs {
					dsts[i] = &bufs[i]
				}
				if _, err := m.MultiProject(context.Background(), dsts, bytes.NewReader(doc),
					WithWorkers(workers), WithChunkSize(4<<10)); err != nil {
					t.Fatal(err)
				}
				for i := range bufs {
					if !bytes.Equal(bufs[i].Bytes(), want[i]) {
						t.Errorf("query %d: output differs after cancelled runs", i)
					}
				}
			})
		}
	}
}

// TestProjectFileCancelledRemovesOutput checks the no-partial-file contract
// under cancellation, serial and parallel.
func TestProjectFileCancelledRemovesOutput(t *testing.T) {
	pf, doc := cancelFixture(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.xml")
	if err := os.WriteFile(in, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]ProjectOption{nil, {WithWorkers(4)}} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		out := filepath.Join(dir, "out.xml")
		if _, err := pf.ProjectFile(ctx, in, out, opts...); !errors.Is(err, context.Canceled) {
			t.Fatalf("opts %d: err = %v, want context.Canceled", len(opts), err)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("opts %d: partial output file left behind (stat err = %v)", len(opts), err)
		}
	}
}

// TestBatchCancelledMidRun cancels a batch while jobs are in flight: every
// result carries a context error, started jobs abort at a chunk boundary,
// and the worker pool drains without leaking goroutines — with and without
// the intra-document axis stacked on top.
func TestBatchCancelledMidRun(t *testing.T) {
	pf, _ := cancelFixture(t)
	for _, intra := range []int{0, 4} {
		intra := intra
		t.Run("intra_"+strconv.Itoa(intra), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			// Endless keyword-free sources: only cancellation can end these
			// jobs.
			var mu sync.Mutex
			cancelOnce := func() {
				mu.Lock()
				defer mu.Unlock()
				if cancel != nil {
					cancel()
				}
			}
			jobs := make([]BatchJob, 4)
			for i := range jobs {
				jobs[i] = BatchJob{
					Name: "endless" + strconv.Itoa(i),
					Src: func() (io.ReadCloser, error) {
						return io.NopCloser(&endlessReader{after: 128 << 10, trigger: cancelOnce}), nil
					},
				}
			}
			results, agg := (&Batch{Prefilter: pf, Workers: 2, IntraWorkers: intra}).Run(ctx, jobs)
			if agg.Failed != len(jobs) {
				t.Fatalf("agg.Failed = %d, want %d", agg.Failed, len(jobs))
			}
			for i, res := range results {
				if !errors.Is(res.Err, context.Canceled) {
					t.Errorf("results[%d].Err = %v, want context.Canceled", i, res.Err)
				}
			}
			waitGoroutines(t, before)
		})
	}
}

// endlessReader produces keyword-free bytes forever and fires trigger once
// after `after` bytes.
type endlessReader struct {
	after    int
	produced int
	trigger  func()
}

func (r *endlessReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	r.produced += len(p)
	if r.produced >= r.after && r.trigger != nil {
		r.trigger()
		r.trigger = nil
	}
	return len(p), nil
}
