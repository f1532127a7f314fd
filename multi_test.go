package smp

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// multiFixture compiles a MultiPrefilter over the first k benchmark queries
// of a dataset and generates a document for it.
func multiFixture(t *testing.T, d Dataset, k int, size int64) (*MultiPrefilter, []byte) {
	t.Helper()
	dtdSource, err := DatasetDTD(d)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := BenchmarkQueries(d)
	if err != nil {
		t.Fatal(err)
	}
	if k > len(queries) {
		k = len(queries)
	}
	specs := make([]string, k)
	for i := 0; i < k; i++ {
		specs[i] = queries[i].Paths
	}
	m, err := CompileMulti(dtdSource, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := GenerateBytes(d, size, 11)
	if err != nil {
		t.Fatal(err)
	}
	return m, doc
}

// TestMultiProjectMatchesStandalone asserts the public multi-query contract
// on both bundled workloads, across the worker axis: each query's output
// from one shared pass — serial or fanned out with WithWorkers — is
// byte-identical to its standalone Project run. The small chunk override
// keeps the parallel threshold below the document size, so the W > 1 cells
// genuinely take the parallel scan.
func TestMultiProjectMatchesStandalone(t *testing.T) {
	for _, d := range []Dataset{XMark, Medline} {
		for _, k := range []int{1, 2, 4, 8} {
			m, doc := multiFixture(t, d, k, 96<<10)
			for _, workers := range []int{1, 2, 4} {
				bufs := make([]bytes.Buffer, m.Len())
				dsts := make([]io.Writer, m.Len())
				for i := range bufs {
					dsts[i] = &bufs[i]
				}
				var agg Stats
				qstats, err := m.MultiProject(context.Background(), dsts, bytes.NewReader(doc),
					WithStatsInto(&agg), WithWorkers(workers), WithChunkSize(4<<10))
				if err != nil {
					t.Fatalf("%s k=%d w=%d: %v", d, k, workers, err)
				}
				if len(qstats) != m.Len() {
					t.Fatalf("%s k=%d w=%d: %d stats for %d queries", d, k, workers, len(qstats), m.Len())
				}
				var wantWritten int64
				for i := 0; i < m.Len(); i++ {
					want := oracleProject(t, m.Query(i), doc)
					if !bytes.Equal(want, bufs[i].Bytes()) {
						t.Errorf("%s k=%d w=%d query %d (%v): multi output %d bytes, standalone %d bytes",
							d, k, workers, i, m.Query(i).Paths(), bufs[i].Len(), len(want))
					}
					wantWritten += int64(bufs[i].Len())
				}
				if agg.BytesWritten != wantWritten {
					t.Errorf("%s k=%d w=%d: aggregate BytesWritten = %d, want %d", d, k, workers, agg.BytesWritten, wantWritten)
				}
				if workers == 1 && agg.BytesRead > int64(len(doc)) {
					t.Errorf("%s k=%d: aggregate BytesRead = %d > document %d (shared pass must count once)",
						d, k, agg.BytesRead, len(doc))
				}
			}
		}
	}
}

// TestMultiProjectMinParallelInput pins the public threshold accessor: a
// smaller chunk lowers the threshold, and a WithWorkers option takes
// precedence over the workers argument.
func TestMultiProjectMinParallelInput(t *testing.T) {
	m, _ := multiFixture(t, XMark, 2, 4<<10)
	small := m.MinParallelInput(4, WithChunkSize(1<<10))
	big := m.MinParallelInput(4)
	if small >= big {
		t.Errorf("smaller chunk should lower the threshold: %d >= %d", small, big)
	}
	if viaOpt := m.MinParallelInput(1, WithWorkers(4), WithChunkSize(1<<10)); viaOpt != small {
		t.Errorf("WithWorkers option = %d, want %d (same as the workers argument)", viaOpt, small)
	}
}

// TestMultiProjectCancelled pins the public cancellation contract: a
// cancelled context surfaces as a *MultiError whose per-query slots are the
// context error, and errors.Is sees through it.
func TestMultiProjectCancelled(t *testing.T) {
	m, doc := multiFixture(t, XMark, 2, 64<<10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var agg Stats
	_, err := m.MultiProject(ctx, nil, bytes.NewReader(doc), WithStatsInto(&agg))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var merr *MultiError
	if !errors.As(err, &merr) {
		t.Fatalf("err is %T, want *MultiError", err)
	}
	for i, qerr := range merr.Errs {
		if !errors.Is(qerr, context.Canceled) {
			t.Errorf("query %d err = %v, want context.Canceled", i, qerr)
		}
	}
	if agg.BytesRead != 0 {
		t.Errorf("read %d bytes under a pre-cancelled context", agg.BytesRead)
	}
}

// TestMultiPlanStats pins the merge-aware accounting split: the scan tables
// are extra, the per-query plans are what standalone prefilters would hold.
func TestMultiPlanStats(t *testing.T) {
	m, _ := multiFixture(t, XMark, 4, 4<<10)
	st := m.PlanStats()
	if st.Queries != m.Len() {
		t.Errorf("Queries = %d, want %d", st.Queries, m.Len())
	}
	if st.UnionKeywords <= 0 || st.ScanBytes <= 0 {
		t.Errorf("union scan accounting empty: %+v", st)
	}
	var wantPlan int64
	for i := 0; i < m.Len(); i++ {
		wantPlan += m.Query(i).PlanStats().MemBytes
	}
	if st.PlanBytes != wantPlan {
		t.Errorf("PlanBytes = %d, want summed per-query %d", st.PlanBytes, wantPlan)
	}
	if st.MemBytes != st.PlanBytes+st.ScanBytes {
		t.Errorf("MemBytes = %d, want %d + %d", st.MemBytes, st.PlanBytes, st.ScanBytes)
	}
}

// TestBatchMulti runs a multi-query batch over in-memory documents and
// file-backed jobs and checks per-query outputs against standalone runs.
func TestBatchMulti(t *testing.T) {
	m, _ := multiFixture(t, XMark, 3, 4<<10)
	docs := make([][]byte, 4)
	for i := range docs {
		d, err := GenerateBytes(XMark, 32<<10, uint64(20+i))
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = d
	}

	dir := t.TempDir()
	jobs := make([]BatchJob, len(docs))
	outs := make([][]string, len(docs))
	for i, doc := range docs {
		in := filepath.Join(dir, "in"+string(rune('a'+i))+".xml")
		if err := os.WriteFile(in, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		outs[i] = make([]string, m.Len())
		for q := range outs[i] {
			outs[i][q] = filepath.Join(dir, "out"+string(rune('a'+i))+"-"+string(rune('0'+q))+".xml")
		}
		jobs[i] = BatchMultiFromFile(in, outs[i])
	}

	batch := Batch{Multi: m, Workers: 2}
	results, agg := batch.Run(context.Background(), jobs)
	if agg.Failed != 0 {
		for _, res := range results {
			if res.Err != nil {
				t.Fatalf("job %s: %v", res.Name, res.Err)
			}
		}
	}
	for i, res := range results {
		if len(res.QueryStats) != m.Len() {
			t.Fatalf("job %d: %d query stats, want %d", i, len(res.QueryStats), m.Len())
		}
		for q := 0; q < m.Len(); q++ {
			got, err := os.ReadFile(outs[i][q])
			if err != nil {
				t.Fatal(err)
			}
			want := oracleProject(t, m.Query(q), docs[i])
			if !bytes.Equal(want, got) {
				t.Errorf("job %d query %d: file output differs (%d vs %d bytes)", i, q, len(got), len(want))
			}
			if res.QueryStats[q].BytesWritten != int64(len(got)) {
				t.Errorf("job %d query %d: BytesWritten = %d, file has %d", i, q, res.QueryStats[q].BytesWritten, len(got))
			}
		}
	}
	if agg.BytesRead == 0 || agg.BytesWritten == 0 {
		t.Errorf("empty aggregate: %+v", agg)
	}
}

// TestBatchMultiCancelledRemovesOutputs asserts a cancelled multi-query
// batch leaves no partial per-query output files behind.
func TestBatchMultiCancelledRemovesOutputs(t *testing.T) {
	m, doc := multiFixture(t, XMark, 2, 256<<10)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.xml")
	if err := os.WriteFile(in, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	outs := []string{filepath.Join(dir, "o0.xml"), filepath.Join(dir, "o1.xml")}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	batch := Batch{Multi: m, Workers: 1}
	results, agg := batch.Run(ctx, []BatchJob{BatchMultiFromFile(in, outs)})
	if agg.Failed != 1 {
		t.Fatalf("failed = %d, want 1 (results: %+v)", agg.Failed, results)
	}
	for _, p := range outs {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("partial output %s left behind (stat err = %v)", p, err)
		}
	}
}

// TestBatchModeMismatchFails pins the destination-shape guard: a job built
// for the wrong batch mode must fail loudly instead of silently discarding
// its output.
func TestBatchModeMismatchFails(t *testing.T) {
	m, doc := multiFixture(t, XMark, 2, 4<<10)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.xml")
	if err := os.WriteFile(in, doc, 0o644); err != nil {
		t.Fatal(err)
	}

	// Single-destination job in a multi-query batch.
	multiBatch := Batch{Multi: m, Workers: 1}
	results, agg := multiBatch.Run(context.Background(), []BatchJob{
		BatchFromFile(in, filepath.Join(dir, "single-out.xml")),
	})
	if agg.Failed != 1 || results[0].Err == nil {
		t.Errorf("single-dst job in multi batch: err = %v, want destination-shape error", results[0].Err)
	}

	// Multi-destination job in a single-query batch.
	singleBatch := Batch{Prefilter: m.Query(0), Workers: 1}
	results, agg = singleBatch.Run(context.Background(), []BatchJob{
		BatchMultiFromFile(in, []string{filepath.Join(dir, "multi-out.xml"), ""}),
	})
	if agg.Failed != 1 || results[0].Err == nil {
		t.Errorf("multi-dst job in single batch: err = %v, want destination-shape error", results[0].Err)
	}

	// Destination-less jobs remain valid measurement runs in both modes.
	results, agg = multiBatch.Run(context.Background(), []BatchJob{BatchFromBytes("mem", doc)})
	if agg.Failed != 0 {
		t.Errorf("destination-less job in multi batch failed: %v", results[0].Err)
	}
}

// TestStatsAdd pins the Stats merge helper over every field: work counters
// and durations sum, the buffer high-water mark keeps the maximum, and
// ZeroCopyInput is set if any merged run had it.
func TestStatsAdd(t *testing.T) {
	a := Stats{BytesRead: 10, BytesWritten: 1, CharComparisons: 5, BytesScanned: 9,
		TagsMatched: 4, RejectedMatches: 1, States: 7, MaxBufferBytes: 100,
		IndexHits: 1, IndexSkips: 0, IndexSummarySkips: 1,
		ScanDuration: 3, ReplayDuration: 4, StitchDuration: 5}
	b := Stats{BytesRead: 20, BytesWritten: 2, CharComparisons: 6, BytesScanned: 18,
		TagsMatched: 5, RejectedMatches: 2, States: 8, MaxBufferBytes: 60, ZeroCopyInput: true,
		IndexHits: 0, IndexSkips: 1, IndexSummarySkips: 0,
		ScanDuration: 30, ReplayDuration: 40, StitchDuration: 50}
	a.Add(b)
	want := Stats{BytesRead: 30, BytesWritten: 3, CharComparisons: 11, BytesScanned: 27,
		TagsMatched: 9, RejectedMatches: 3, States: 15, MaxBufferBytes: 100, ZeroCopyInput: true,
		IndexHits: 1, IndexSkips: 1, IndexSummarySkips: 1,
		ScanDuration: 33, ReplayDuration: 44, StitchDuration: 55}
	if a != want {
		t.Errorf("Add result = %+v, want %+v", a, want)
	}
}

// TestMultiProjectReusesCandidateLists pins the reuse of candidate lists
// across runs of one engine: after a warm-up, a W=2 MultiProject of a mapped
// 2 MiB MEDLINE document over the five MEDLINE queries allocates at most a
// quarter of what it did when every run grew its lists from nil (a median
// of 486,544 bytes per run then, about 7 KB now). The median of nine runs
// is taken, so a run that meets a garbage collection — which may empty the
// pool — does not decide.
func TestMultiProjectReusesCandidateLists(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	m, doc := multiFixture(t, Medline, 5, 2<<20)
	path := filepath.Join(t.TempDir(), "medline.xml")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	opts := []ProjectOption{WithWorkers(2), WithChunkSize(64 << 10)}
	if m.MinParallelInput(2, opts...) > len(doc) {
		t.Fatalf("a %d-byte document does not fan out", len(doc))
	}
	run := func() uint64 {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := m.MultiProject(context.Background(), nil, f, opts...); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run()
	run()
	allocs := make([]uint64, 9)
	for i := range allocs {
		allocs[i] = run()
	}
	slices.Sort(allocs)
	t.Logf("bytes allocated per run: %v", allocs)
	const limit = 486544 / 4
	if median := allocs[len(allocs)/2]; median > limit {
		t.Fatalf("a warm MultiProject allocates %d bytes (median of %d runs), want at most %d", median, len(allocs), limit)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
