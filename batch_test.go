package smp

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
)

// batchFixture compiles one prefilter and a set of distinct documents with
// their serial projections.
func batchFixture(t *testing.T) (*Prefilter, [][]byte, [][]byte) {
	t.Helper()
	dtdSource, err := DatasetDTD(XMark)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Compile(dtdSource, "/*, //australia//description#", Options{})
	if err != nil {
		t.Fatal(err)
	}
	docs := make([][]byte, 6)
	want := make([][]byte, len(docs))
	for i := range docs {
		docs[i], err = GenerateBytes(XMark, 64<<10, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = oracleProject(t, pf, docs[i])
	}
	return pf, docs, want
}

// syncBuffer is an in-memory WriteCloser destination safe for worker use.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Close() error { return nil }

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Bytes()
}

// TestBatchMatchesSerial shards a batch across workers and checks the
// projections and aggregate counters against the serial runs.
func TestBatchMatchesSerial(t *testing.T) {
	pf, docs, want := batchFixture(t)

	outs := make([]*syncBuffer, len(docs))
	jobs := make([]BatchJob, len(docs))
	for i, doc := range docs {
		outs[i] = &syncBuffer{}
		job := BatchFromBytes("doc"+strconv.Itoa(i), doc)
		out := outs[i]
		job.Dst = func() (io.WriteCloser, error) { return out, nil }
		jobs[i] = job
	}
	batch := Batch{Prefilter: pf, Workers: 3}
	results, agg := batch.Run(context.Background(), jobs)
	if agg.Failed != 0 {
		t.Fatalf("agg.Failed = %d, want 0 (results %+v)", agg.Failed, results)
	}
	if agg.Documents != len(docs) {
		t.Fatalf("agg.Documents = %d, want %d", agg.Documents, len(docs))
	}
	var wantWritten int64
	for i := range docs {
		if results[i].Name != "doc"+strconv.Itoa(i) {
			t.Fatalf("results[%d].Name = %q: results out of job order", i, results[i].Name)
		}
		if !bytes.Equal(outs[i].Bytes(), want[i]) {
			t.Errorf("doc %d: batch projection differs from serial (%d vs %d bytes)", i, len(outs[i].Bytes()), len(want[i]))
		}
		wantWritten += int64(len(want[i]))
	}
	if agg.BytesWritten != wantWritten {
		t.Errorf("agg.BytesWritten = %d, want %d", agg.BytesWritten, wantWritten)
	}
}

// TestBatchJobErrorIsolation checks that one failing job never stops the
// batch: its error lands in its own BatchResult and every other job runs.
func TestBatchJobErrorIsolation(t *testing.T) {
	pf, docs, _ := batchFixture(t)
	boom := errors.New("boom")
	jobs := []BatchJob{
		BatchFromBytes("ok0", docs[0]),
		{Name: "bad-src", Src: func() (io.ReadCloser, error) { return nil, boom }},
		BatchFromBytes("bad-doc", []byte("<wrong/>")),
		BatchFromBytes("ok1", docs[1]),
	}
	results, agg := (&Batch{Prefilter: pf, Workers: 2}).Run(context.Background(), jobs)
	if agg.Failed != 2 {
		t.Fatalf("agg.Failed = %d, want 2", agg.Failed)
	}
	if !errors.Is(results[1].Err, boom) {
		t.Errorf("results[1].Err = %v, want %v", results[1].Err, boom)
	}
	if results[2].Err == nil {
		t.Error("results[2].Err = nil, want a DTD-conformance error")
	}
	for _, i := range []int{0, 3} {
		if results[i].Err != nil {
			t.Errorf("results[%d].Err = %v, want nil", i, results[i].Err)
		}
	}
}

// TestBatchFromFile round-trips a document through file-based jobs.
func TestBatchFromFile(t *testing.T) {
	pf, docs, want := batchFixture(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.xml")
	out := filepath.Join(dir, "out.xml")
	if err := os.WriteFile(in, docs[0], 0o644); err != nil {
		t.Fatal(err)
	}
	results, agg := (&Batch{Prefilter: pf, Workers: 1}).Run(context.Background(), []BatchJob{BatchFromFile(in, out)})
	if agg.Failed != 0 {
		t.Fatalf("run failed: %v", results[0].Err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[0]) {
		t.Fatalf("file projection differs from serial (%d vs %d bytes)", len(got), len(want[0]))
	}
}

// TestBatchNeedsPrefilter checks the nil-Prefilter contract: errors in the
// results, no panic.
func TestBatchNeedsPrefilter(t *testing.T) {
	jobs := []BatchJob{BatchFromBytes("a", []byte("<a/>"))}
	results, agg := (&Batch{}).Run(context.Background(), jobs)
	if agg.Failed != 1 || results[0].Err == nil {
		t.Fatalf("want a per-job error, got agg %+v results %+v", agg, results)
	}
	if !strings.Contains(results[0].Err.Error(), "Prefilter") {
		t.Errorf("error %q should name the missing Prefilter", results[0].Err)
	}
}

// TestBatchChunkSizeOverride checks that the batch-level chunk override
// reaches the workers without changing the output.
func TestBatchChunkSizeOverride(t *testing.T) {
	pf, docs, want := batchFixture(t)
	outs := make([]*syncBuffer, len(docs))
	jobs := make([]BatchJob, len(docs))
	for i, doc := range docs {
		outs[i] = &syncBuffer{}
		job := BatchFromBytes("doc"+strconv.Itoa(i), doc)
		out := outs[i]
		job.Dst = func() (io.WriteCloser, error) { return out, nil }
		jobs[i] = job
	}
	_, agg := (&Batch{Prefilter: pf, Workers: 2, ChunkSize: 1 << 10}).Run(context.Background(), jobs)
	if agg.Failed != 0 {
		t.Fatalf("agg.Failed = %d, want 0", agg.Failed)
	}
	for i := range docs {
		if !bytes.Equal(outs[i].Bytes(), want[i]) {
			t.Errorf("doc %d: chunk-override projection differs", i)
		}
	}
}

// TestBatchFromFileRemovesPartialOutput checks the ProjectFile contract on
// the batch path: a job that fails (or is cancelled) mid-stream must not
// leave a truncated output file behind.
func TestBatchFromFileRemovesPartialOutput(t *testing.T) {
	pf, docs, _ := batchFixture(t)
	dir := t.TempDir()

	// A document that starts conforming (output gets written) and then
	// breaks off inside a tag.
	bad := append([]byte{}, docs[0][:len(docs[0])-40]...)
	bad = append(bad, []byte("<name oops")...)
	in := filepath.Join(dir, "bad.xml")
	if err := os.WriteFile(in, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.xml")
	results, agg := (&Batch{Prefilter: pf, Workers: 1}).Run(context.Background(), []BatchJob{BatchFromFile(in, out)})
	if agg.Failed != 1 {
		t.Fatalf("agg.Failed = %d, want 1 (err %v)", agg.Failed, results[0].Err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("partial output file left behind after failure (stat err = %v)", err)
	}

	// Cancelled mid-batch: same contract.
	good := filepath.Join(dir, "good.xml")
	if err := os.WriteFile(good, docs[0], 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outCancelled := filepath.Join(dir, "out-cancelled.xml")
	results, _ = (&Batch{Prefilter: pf, Workers: 1}).Run(ctx, []BatchJob{BatchFromFile(good, outCancelled)})
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("results[0].Err = %v, want context.Canceled", results[0].Err)
	}
	if _, err := os.Stat(outCancelled); !os.IsNotExist(err) {
		t.Errorf("output file left behind after cancellation (stat err = %v)", err)
	}
}

// TestBatchResultElapsed checks that every successful job of a single-query
// and of a multi-query batch reports its own wall-clock time, bounded by the
// batch's.
func TestBatchResultElapsed(t *testing.T) {
	pf, docs, _ := batchFixture(t)
	m, err := NewMultiPrefilter(pf, pf)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]BatchJob, len(docs))
	for i, doc := range docs {
		jobs[i] = BatchFromBytes("doc"+strconv.Itoa(i), doc)
	}
	for _, b := range []Batch{{Prefilter: pf, Workers: 2}, {Multi: m, Workers: 2}} {
		results, agg := b.Run(context.Background(), jobs)
		if agg.Failed != 0 {
			t.Fatalf("multi=%v: %d jobs failed", b.Multi != nil, agg.Failed)
		}
		for _, res := range results {
			if res.Elapsed <= 0 || res.Elapsed > agg.Elapsed {
				t.Errorf("multi=%v %s: Elapsed = %v, want in (0, %v]", b.Multi != nil, res.Name, res.Elapsed, agg.Elapsed)
			}
		}
	}
}
