package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/dtd"
	"smp/internal/paths"
	"smp/internal/xmlgen"
)

// medline8 is the 8 MiB MEDLINE document and the M1–M5 engine shared by
// the tests and the benchmark below; generating it once keeps them fast.
var medline8 struct {
	once sync.Once
	doc  []byte
	eng  *Engine
}

func medlineFixture(t testing.TB) ([]byte, *Engine) {
	t.Helper()
	medline8.once.Do(func() {
		schema := dtd.MustParse(xmlgen.MedlineDTD())
		var plans []*core.Plan
		for _, q := range xmlgen.MedlineQueries() {
			table, err := compile.Compile(schema, paths.MustParseSet(q.Paths), compile.Options{})
			if err != nil {
				panic(err)
			}
			plans = append(plans, core.NewPlan(table, core.Options{}))
		}
		medline8.eng = New(plans)
		medline8.doc = xmlgen.MedlineBytes(xmlgen.Config{TargetSize: 8 << 20, Seed: 7})
	})
	return medline8.doc, medline8.eng
}

// writeTemp stores doc in a fresh file of the test's temporary directory.
func writeTemp(t testing.TB, doc []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// anchorsWithin returns the largest number of '<' bytes in any window of n
// consecutive bytes of doc: an upper bound on the anchors (Stats.Shifts)
// one segment of that size can contribute.
func anchorsWithin(doc []byte, n int) int64 {
	var at []int
	for i, c := range doc {
		if c == '<' {
			at = append(at, i)
		}
	}
	best := 0
	for lo, hi := 0, 0; hi < len(at); hi++ {
		for at[hi]-at[lo] >= n {
			lo++
		}
		best = max(best, hi-lo+1)
	}
	return int64(best)
}

// TestParallelScanAhead pins the scan-ahead bound: over an in-memory
// document of many segments, a driver that pulls nothing leaves the reader
// blocked after at most scanAhead+1 segments, so the scanners stop there
// instead of running through the whole document.
func TestParallelScanAhead(t *testing.T) {
	doc, eng := medlineFixture(t)
	const workers = 2
	segSize, overlap := eng.sizing(workers, Options{ChunkSize: 4 << 10})
	if n := len(doc) / segSize; n < 64 {
		t.Fatalf("fixture has %d segments, want >= 64", n)
	}
	p := newParallelSource(context.Background(), eng.scan, workers, segSize, overlap, nil, nil, doc)
	// Wait for the event the bound promises: the reorder buffer full.
	for len(p.ordered) < cap(p.ordered) {
		runtime.Gosched()
	}
	var st core.Stats
	p.close(&st)
	bound := scanAhead(workers) + 1
	if max := int64(bound * (segSize + overlap)); st.BytesRead > max {
		t.Errorf("reader cut %d bytes with nothing pulled, want <= %d (%d segments)", st.BytesRead, max, bound)
	}
	if max := int64(bound) * anchorsWithin(doc, segSize+overlap); st.Shifts > max {
		t.Errorf("scanners found %d anchors with nothing pulled, want <= %d", st.Shifts, max)
	}
}

// TestParallelRecycle pins the allocation-free steady state: one 8 MiB
// W=2 run of M1–M5 recycles its segments' candidate lists instead of
// growing a fresh one per segment.
func TestParallelRecycle(t *testing.T) {
	doc, eng := medlineFixture(t)
	run := func() {
		dsts := make([]io.Writer, eng.Len())
		for i := range dsts {
			dsts[i] = io.Discard
		}
		if _, err := eng.ProjectBuffered(context.Background(), dsts, doc, Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("one 8 MiB W=2 run allocated %d bytes, want < 1 MiB", got)
	}
}

// TestParallelEarlyStop pins that a mapped parallel run stops scanning when
// every query has finished, like a streamed one: the document ends its
// root element after the first citation, so the replay stops pulling there
// and both runs scan only the scan-ahead bound past that point.
func TestParallelEarlyStop(t *testing.T) {
	full, eng := medlineFixture(t)
	const closeTag = "</MedlineCitation>"
	i := bytes.Index(full, []byte(closeTag)) + len(closeTag)
	doc := append(append(append([]byte(nil), full[:i]...), "</MedlineCitationSet>"...), full[i:]...)

	opts := Options{Workers: 2}
	streamed, err := eng.Project(context.Background(), nil, bytes.NewReader(doc), opts)
	if err != nil {
		t.Fatalf("streamed: %v", err)
	}
	f, err := os.Open(writeTemp(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mapped, err := eng.Project(context.Background(), nil, f, opts)
	if err != nil {
		t.Fatalf("mapped: %v", err)
	}
	if !mapped.Scan.ZeroCopyInput {
		t.Fatal("file run was not mapped")
	}
	segSize, overlap := eng.sizing(opts.Workers, opts)
	slack := int64(scanAhead(opts.Workers)+1) * anchorsWithin(doc, segSize+overlap)
	if mapped.Scan.Shifts > streamed.Scan.Shifts+slack {
		t.Errorf("mapped run: %d shifts, streamed %d; want at most %d more",
			mapped.Scan.Shifts, streamed.Scan.Shifts, slack)
	}
}

// TestParallelStraddleBeyondScanAhead pins that the scan-ahead bound is not
// tied to retirement: a tag straddling far more than scanAhead segments
// keeps them all live in the driver's chain while it resolves, and the run
// must still complete, byte-identical to the serial engine.
func TestParallelStraddleBeyondScanAhead(t *testing.T) {
	const workers = 2
	table, err := compile.Compile(dtd.MustParse(sizingDTD), paths.MustParseSet("/*, //rec#"), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := core.NewPlan(table, core.Options{})
	eng := New([]*core.Plan{plan})
	opts := Options{Workers: workers, ChunkSize: 16}
	segSize, overlap := eng.sizing(workers, opts)
	attr := strings.Repeat("x", 40*scanAhead(workers)*(segSize+overlap))
	doc := []byte(`<r><rec a="` + attr + `">text</rec><rec>b</rec></r>`)

	want, _, err := core.NewFromPlan(plan).ProjectBytes(context.Background(), doc)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, tc := range []struct {
		name string
		run  func(io.Writer) (Result, error)
	}{
		{"buffered", func(w io.Writer) (Result, error) {
			return eng.ProjectBuffered(context.Background(), []io.Writer{w}, doc, opts)
		}},
		{"streamed", func(w io.Writer) (Result, error) {
			return eng.Project(context.Background(), []io.Writer{w}, bytes.NewReader(doc), opts)
		}},
	} {
		var got bytes.Buffer
		res, err := tc.run(&got)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: output differs from the serial engine", tc.name)
		}
		if held := res.Scan.MaxBufferBytes; held < int64(len(attr)) {
			t.Errorf("%s: chain held at most %d bytes, want the whole %d-byte tag", tc.name, held, len(attr))
		}
	}
}

// writeOnly hides every method of its writer but Write, as a bare hash or
// a digest sink does.
type writeOnly struct{ w io.Writer }

func (w writeOnly) Write(p []byte) (int, error) { return w.w.Write(p) }

// TestTagWritesAllocationFree pins that synthesized tags reach a
// Write-only sink without a per-tag copy: the allocations of a K=1, W=1
// run do not grow with the document.
func TestTagWritesAllocationFree(t *testing.T) {
	table, err := compile.Compile(dtd.MustParse(xmlgen.XMarkDTD()), paths.MustParseSet("/*, //item/name#, //keyword"), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := New([]*core.Plan{core.NewPlan(table, core.Options{})})
	allocs := func(size int64) float64 {
		doc := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: size, Seed: 7})
		sink := []io.Writer{writeOnly{io.Discard}}
		return testing.AllocsPerRun(3, func() {
			if _, err := eng.Project(context.Background(), sink, bytes.NewReader(doc), Options{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A larger document may still meet a segment denser than any before
	// and double a candidate list a few more times: logarithmic in the
	// segment size, never one allocation per tag or per segment.
	small, large := allocs(1<<20), allocs(4<<20)
	if large > small+16 {
		t.Errorf("allocations grow with the document: %.0f at 1 MiB, %.0f at 4 MiB", small, large)
	}
}

// BenchmarkMultiProjectMapped runs M1–M5 merged over the mapped 8 MiB
// MEDLINE document on two scan workers, into SHA-256 sinks (Write-only
// writers, like a digesting consumer).
func BenchmarkMultiProjectMapped(b *testing.B) {
	doc, eng := medlineFixture(b)
	path := writeTemp(b, doc)
	dsts := make([]io.Writer, eng.Len())
	sums := make([]hash.Hash, eng.Len())
	for i := range dsts {
		sums[i] = sha256.New()
		dsts[i] = sums[i]
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		for _, h := range sums {
			h.Reset()
		}
		_, err = eng.Project(context.Background(), dsts, f, Options{Workers: 2})
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
}
