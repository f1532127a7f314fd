package smp

// Race-focused tests for the concurrent prefiltering surface: one compiled
// Prefilter driven from many goroutines must produce byte-identical output
// to the serial path, with the pooled per-run engine state never leaking
// between runs. Run with `go test -race` to make the checks meaningful.

import (
	"bytes"
	"context"
	"io"
	"strconv"
	"sync"
	"testing"
)

// concurrencyFixture compiles one prefilter and a set of distinct documents
// with their projections by the serial Fig. 4 engine (the oracle).
func concurrencyFixture(t *testing.T) (*Prefilter, [][]byte, [][]byte) {
	t.Helper()
	dtdSource, err := DatasetDTD(XMark)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Compile(dtdSource, "/*, //australia//description#", Options{})
	if err != nil {
		t.Fatal(err)
	}
	const docCount = 4
	docs := make([][]byte, docCount)
	want := make([][]byte, docCount)
	for i := range docs {
		docs[i], err = GenerateBytes(XMark, 96<<10, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = oracleProject(t, pf, docs[i])
	}
	return pf, docs, want
}

// TestPrefilterConcurrentIdenticalOutput runs one compiled Prefilter from
// many goroutines over a rotating set of documents and asserts every
// projection matches the serial result byte for byte.
func TestPrefilterConcurrentIdenticalOutput(t *testing.T) {
	pf, docs, want := concurrencyFixture(t)

	const goroutines = 16
	const iterations = 6
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				i := (g + it) % len(docs)
				var out bytes.Buffer
				stats, err := pf.Project(context.Background(), &out, bytes.NewReader(docs[i]))
				if err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(out.Bytes(), want[i]) {
					errc <- &mismatchError{goroutine: g, doc: i, got: out.Len(), want: len(want[i])}
					return
				}
				if stats.BytesRead != int64(len(docs[i])) || stats.BytesWritten != int64(len(want[i])) {
					errc <- &mismatchError{goroutine: g, doc: i, got: int(stats.BytesWritten), want: len(want[i])}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// withoutDurations zeroes the wall-clock stage durations of st.
func withoutDurations(st Stats) Stats {
	st.ScanDuration, st.ReplayDuration, st.StitchDuration = 0, 0, 0
	return st
}

type mismatchError struct {
	goroutine, doc, got, want int
}

func (e *mismatchError) Error() string {
	return "goroutine " + strconv.Itoa(e.goroutine) + ", doc " + strconv.Itoa(e.doc) +
		": projection size " + strconv.Itoa(e.got) + ", want " + strconv.Itoa(e.want)
}

// TestPrefilterSequentialReuseStatsReset checks that no per-run state
// (segment buffers, scan counters) leaks between runs: repeating the same
// document must repeat the same counters. The stage durations are wall-clock
// times and are zeroed before comparing.
func TestPrefilterSequentialReuseStatsReset(t *testing.T) {
	pf, docs, _ := concurrencyFixture(t)
	var first Stats
	if _, err := pf.Project(context.Background(), io.Discard, bytes.NewReader(docs[0]), WithStatsInto(&first)); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		var again Stats
		if _, err := pf.Project(context.Background(), io.Discard, bytes.NewReader(docs[0]), WithStatsInto(&again)); err != nil {
			t.Fatal(err)
		}
		// Every counter must match exactly, including the per-run segment
		// high-water mark MaxBufferBytes.
		if withoutDurations(again) != withoutDurations(first) {
			t.Fatalf("run %d: stats drifted across runs:\nfirst: %+v\nagain: %+v", run, first, again)
		}
	}
}

// TestProjectWorkersMatchesSerial checks the public intra-document
// parallel surface: for every worker count, Project with WithWorkers must
// be byte-identical to the serial Fig. 4 engine and write as many bytes as
// the serial Project.
func TestProjectWorkersMatchesSerial(t *testing.T) {
	dtdSource, err := DatasetDTD(XMark)
	if err != nil {
		t.Fatal(err)
	}
	// A small chunk keeps segments small, so even a modest document is cut
	// into enough segments to exercise the pipeline at 8 workers.
	pf, err := Compile(dtdSource, "/*, //australia//description#", Options{ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := GenerateBytes(XMark, 256<<10, 11)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleProject(t, pf, doc)
	var wantStats Stats
	if _, err := pf.Project(context.Background(), io.Discard, bytes.NewReader(doc), WithStatsInto(&wantStats)); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		var out bytes.Buffer
		stats, err := pf.Project(context.Background(), &out, bytes.NewReader(doc), WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("workers %d: WithWorkers output differs (%d vs %d bytes)", workers, out.Len(), len(want))
		}
		if stats.BytesWritten != wantStats.BytesWritten {
			t.Errorf("workers %d: BytesWritten = %d, want %d", workers, stats.BytesWritten, wantStats.BytesWritten)
		}
	}
}

// TestProjectParallelConcurrentCallers drives parallel Project calls from
// several goroutines sharing one Prefilter (meaningful under -race).
func TestProjectParallelConcurrentCallers(t *testing.T) {
	pf, docs, want := concurrencyFixture(t)
	var wg sync.WaitGroup
	errc := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(docs)
			var out bytes.Buffer
			_, err := pf.Project(context.Background(), &out, bytes.NewReader(docs[i]), WithWorkers(2+g%3))
			if err == nil && !bytes.Equal(out.Bytes(), want[i]) {
				err = &mismatchError{goroutine: g, doc: i, got: out.Len(), want: len(want[i])}
			}
			errc <- err
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestProjectOptionsCombine checks that chunk-size overrides and the stats
// sink compose with workers without changing the projection.
func TestProjectOptionsCombine(t *testing.T) {
	pf, docs, want := concurrencyFixture(t)
	for i, doc := range docs {
		for _, opts := range [][]ProjectOption{
			{WithChunkSize(1 << 10)},
			{WithChunkSize(777)},
			{WithWorkers(3), WithChunkSize(1 << 10)},
			{WithAutoWorkers()},
			{nil}, // nil options are ignored
		} {
			var out bytes.Buffer
			var st Stats
			if _, err := pf.Project(context.Background(), &out, bytes.NewReader(doc), append(opts, WithStatsInto(&st))...); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want[i]) {
				t.Errorf("doc %d opts %d: output differs (%d vs %d bytes)", i, len(opts), out.Len(), len(want[i]))
			}
			if st.BytesWritten != int64(len(want[i])) {
				t.Errorf("doc %d: WithStatsInto.BytesWritten = %d, want %d", i, st.BytesWritten, len(want[i]))
			}
		}
	}
}

// TestMinParallelInputHonorsOptions checks the size-routing contract: the
// reported parallel threshold reflects the same options the projection will
// run with (chunk-size override, WithWorkers precedence).
func TestMinParallelInputHonorsOptions(t *testing.T) {
	pf, _, _ := concurrencyFixture(t)
	base := pf.MinParallelInput(4)
	small := pf.MinParallelInput(4, WithChunkSize(4096))
	if small >= base {
		t.Errorf("MinParallelInput with a smaller chunk = %d, want < %d", small, base)
	}
	if viaOpt := pf.MinParallelInput(1, WithWorkers(4), WithChunkSize(4096)); viaOpt != small {
		t.Errorf("WithWorkers option = %d, want %d (same as the workers argument)", viaOpt, small)
	}
}
