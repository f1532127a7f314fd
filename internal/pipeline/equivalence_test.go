// The differential equivalence suite of the unified K×W pipeline: every
// test in this file compares pipeline output byte-for-byte against the
// serial single-query Fig. 4 engine, which is the correctness reference. The
// full grid lives in TestEquivalenceGrid (driven by internal/testutil); the
// remaining tests pin specific adversarial shapes — boundary straddling,
// malformed inputs, failing readers and writers, cancellation, concurrent
// runs — that the grid's conforming corpora cannot reach.
package pipeline_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"smp/internal/core"
	"smp/internal/fig4"
	"smp/internal/pipeline"
	"smp/internal/testutil"
)

// TestEquivalenceGrid is the harness of record: every (K queries) × (W
// workers) cell over the bundled XMark and MEDLINE corpora, across chunk and
// segment sizes, over plain, chunked and in-memory inputs, plus the
// write-error and cancellation paths. Run it under -race to exercise the
// parallel source's synchronization.
func TestEquivalenceGrid(t *testing.T) {
	grid := testutil.Grid{}
	grid.Run(t, testutil.XMarkWorkload(96<<10))
	grid.Run(t, testutil.MedlineWorkload(96<<10))
}

// TestEquivalenceGridSynthetic drives the same grid over the synthetic
// corpora whose vocabularies are deliberately adversarial: overlapping and
// disjoint query sets over the Fig. 1 DTD, and prefix-colliding tagnames
// with tiny chunks so keywords straddle segment boundaries.
func TestEquivalenceGridSynthetic(t *testing.T) {
	grid := testutil.Grid{Chunks: []int{64, 777}, SegmentSizes: []int{0, 128}}
	grid.Run(t, testutil.Fig1Workload(48<<10))
	grid.Run(t, testutil.PrefixWorkload(36<<10))
}

// assertAgreesWithSerial runs the merged projection of plans over doc and
// asserts each query's output and error match its standalone serial run.
func assertAgreesWithSerial(t *testing.T, plans []*core.Plan, doc []byte, opts pipeline.Options) {
	t.Helper()
	eng := pipeline.New(plans)
	bufs := make([]bytes.Buffer, len(plans))
	dsts := make([]io.Writer, len(plans))
	for i := range bufs {
		dsts[i] = &bufs[i]
	}
	res, runErr := eng.Project(context.Background(), dsts, bytes.NewReader(doc), opts)
	errs := testutil.PerQueryErrors(t, runErr, len(plans))
	for i, plan := range plans {
		want, wantErr := testutil.SerialProject(t, plan, doc)
		if (wantErr == nil) != (errs[i] == nil) {
			t.Fatalf("w=%d query %d: serial err = %v, pipeline err = %v", opts.Workers, i, wantErr, errs[i])
		}
		if wantErr != nil {
			if wantErr.Error() != errs[i].Error() {
				t.Errorf("w=%d query %d: serial err %q, pipeline err %q", opts.Workers, i, wantErr, errs[i])
			}
			continue
		}
		if !bytes.Equal(want, bufs[i].Bytes()) {
			t.Errorf("w=%d query %d: output differs: serial %d bytes, pipeline %d bytes",
				opts.Workers, i, len(want), bufs[i].Len())
		}
		if res.Query[i].BytesWritten != int64(bufs[i].Len()) {
			t.Errorf("w=%d query %d: BytesWritten = %d, wrote %d", opts.Workers, i, res.Query[i].BytesWritten, bufs[i].Len())
		}
	}
}

// TestVocabularyMixes covers the vocabulary-overlap spectrum: fully
// overlapping (the same query twice), partially overlapping, and disjoint
// frontier vocabularies, plus prefix-colliding tagnames whose longest-first
// resolution must not leak across queries — at every worker count.
func TestVocabularyMixes(t *testing.T) {
	docFig1 := testutil.BuildFig1Doc(48 << 10)
	docPrefix := testutil.BuildPrefixDoc(24 << 10)

	cases := []struct {
		name   string
		dtdSrc string
		doc    []byte
		specs  []string
	}{
		{"identical", testutil.Fig1DTD, docFig1, []string{
			"/*, //australia//description#",
			"/*, //australia//description#",
		}},
		{"overlapping", testutil.Fig1DTD, docFig1, []string{
			"/*, //australia//description#",
			"/*, //item/name#",
			"/*, //asia//item#",
		}},
		{"disjoint", testutil.Fig1DTD, docFig1, []string{
			"/*, //item/name#",
			"/*, //item/payment#",
		}},
		{"prefix-collisions", testutil.PrefixDTD, docPrefix, []string{
			"/*, //Abstract#",
			"/*, //AbstractText#",
			"/*, //AbstractTextTranslatedVersion#",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plans := testutil.MakePlans(t, tc.dtdSrc, tc.specs, core.Options{})
			for _, workers := range []int{1, 4} {
				for _, chunk := range []int{64, 777, 8 << 10} {
					assertAgreesWithSerial(t, plans, tc.doc, pipeline.Options{Workers: workers, ChunkSize: chunk, SegmentSize: 256})
				}
			}
		})
	}
}

// TestMalformedDocsAgreeWithSerial checks that malformed and non-conforming
// documents fail in every pipeline shape exactly when (and, per query, how)
// they fail serially.
func TestMalformedDocsAgreeWithSerial(t *testing.T) {
	good := testutil.BuildFig1Doc(8 << 10)
	specs := []string{
		"/*, //australia//description#",
		"/*, //asia//item#",
		"/*, //item/name#",
	}
	mutations := map[string][]byte{
		"truncated":      good[:len(good)-200],
		"unclosed-tag":   append(append([]byte{}, good[:2000]...), []byte("<name never closes")...),
		"wrong-root":     []byte(`<bogus>` + string(good) + `</bogus>`),
		"foreign-tag":    bytes.Replace(good, []byte("<asia>"), []byte("<asia><site>"), 1),
		"empty":          nil,
		"no-xml-at-all":  bytes.Repeat([]byte("plain text, nothing to see "), 400),
		"stray-brackets": bytes.Repeat([]byte("< << <<< <>"), 2000),
		// A searched-for keyword inside an attribute value: SMP matches at
		// the string level, so both engines must take the same (wrong)
		// turn and then agree on whatever follows from it.
		"keyword-in-attribute": bytes.Replace(good, []byte(`<location>oz</location>`),
			[]byte(`<location a="<description trap">oz</location>`), 1),
		// Truncated mid-tag: ends inside an open tag's attribute list.
		"mid-tag": good[:bytes.LastIndex(good, []byte("<name"))+3],
	}
	for _, k := range []int{1, 3} {
		plans := testutil.MakePlans(t, testutil.Fig1DTD, specs[:k], core.Options{})
		for name, doc := range mutations {
			t.Run(fmt.Sprintf("k%d/%s", k, name), func(t *testing.T) {
				for _, workers := range []int{1, 2, 4} {
					assertAgreesWithSerial(t, plans, doc, pipeline.Options{Workers: workers, ChunkSize: 64, SegmentSize: 128})
				}
			})
		}
	}
}

// TestBoundaryStraddle pins segment boundaries into the middle of keywords,
// tags and copy regions: a tag whose attribute list is far longer than the
// lookahead forces the driver's cross-segment tag-end resolution.
func TestBoundaryStraddle(t *testing.T) {
	longAttr := `<rec><Abstract a="` + strings.Repeat("pad ", 200) + `">x</Abstract><AbstractText>y</AbstractText></rec>`
	doc := []byte(`<r>` + strings.Repeat(longAttr, 8) + `</r>`)

	specs := []string{
		"/*, //Abstract#",
		"/*, //AbstractText#",
		"/*, //AbstractTextTranslatedVersion#",
	}
	for _, k := range []int{1, 3} {
		plans := testutil.MakePlans(t, testutil.PrefixDTD, specs[:k], core.Options{ChunkSize: 64})
		for _, workers := range []int{2, 4, 8} {
			assertAgreesWithSerial(t, plans, doc, pipeline.Options{Workers: workers, SegmentSize: 16})
		}
	}
}

// TestReadErrorMidStream checks that a mid-stream read failure is surfaced
// for every live query (not swallowed and not deadlocked on), including when
// the stream dies inside a tag, and that a failure during the very first
// block degrades to the serial path with byte-identical prefix output.
func TestReadErrorMidStream(t *testing.T) {
	doc := testutil.BuildFig1Doc(32 << 10)
	boom := errors.New("disk on fire")
	plans := testutil.MakePlans(t, testutil.Fig1DTD, []string{
		"/*, //australia//description#",
		"/*, //item/name#",
	}, core.Options{ChunkSize: 64})
	eng := pipeline.New(plans)

	check := func(name string, prefix []byte, opts pipeline.Options) {
		t.Helper()
		_, err := eng.Project(context.Background(), nil, testutil.ErrReader(prefix, boom), opts)
		if !errors.Is(err, boom) {
			t.Fatalf("%s: err = %v, want %v", name, err, boom)
		}
		for i, qerr := range testutil.PerQueryErrors(t, err, len(plans)) {
			if !errors.Is(qerr, boom) {
				t.Errorf("%s: query %d err = %v, want %v", name, i, qerr, boom)
			}
		}
	}
	for _, workers := range []int{1, 4} {
		opts := pipeline.Options{Workers: workers, SegmentSize: 512}
		check(fmt.Sprintf("w%d/mid-stream", workers), doc[:16<<10], opts)
		// Truncating inside a tag must still surface the reader's error — as
		// the serial window does — not a synthesized end-of-input-inside-tag
		// error from the scanner.
		check(fmt.Sprintf("w%d/mid-tag", workers), doc[:bytes.LastIndex(doc[:16<<10], []byte("<name"))+3], opts)
	}

	// An error during the very first block (before one segment fills) is
	// handed to the serial path prefix-first; the underlying error must
	// surface and the readable prefix must still have been projected.
	var serialOut bytes.Buffer
	_, serialErr := fig4.New(plans[0], fig4.Options{}).Project(context.Background(), &serialOut, testutil.ErrReader(doc[:100], boom))
	if !errors.Is(serialErr, boom) {
		t.Fatalf("serial first-block err = %v, want %v", serialErr, boom)
	}
	var out bytes.Buffer
	_, err := eng.Project(context.Background(), []io.Writer{&out, io.Discard}, testutil.ErrReader(doc[:100], boom), pipeline.Options{Workers: 4, SegmentSize: 512})
	if !errors.Is(err, boom) {
		t.Fatalf("first-block err = %v, want %v", err, boom)
	}
	if !bytes.Equal(out.Bytes(), serialOut.Bytes()) {
		t.Fatalf("first-block prefix output %q, serial wrote %q", out.Bytes(), serialOut.Bytes())
	}
}

// TestWriteErrorIsolation asserts that one query's failing destination stops
// only that query: the others still produce byte-identical output, and the
// run error carries exactly one non-nil slot.
func TestWriteErrorIsolation(t *testing.T) {
	doc := testutil.BuildFig1Doc(64 << 10)
	plans := testutil.MakePlans(t, testutil.Fig1DTD, []string{
		"/*, //australia//description#",
		"/*, //item/name#",
	}, core.Options{})
	eng := pipeline.New(plans)
	for _, workers := range []int{1, 4} {
		var good bytes.Buffer
		bad := testutil.FailingWriter(64)
		_, err := eng.Project(context.Background(), []io.Writer{bad, &good},
			bytes.NewReader(doc), pipeline.Options{Workers: workers, ChunkSize: 1024, SegmentSize: 512})
		errs := testutil.PerQueryErrors(t, err, 2)
		if !errors.Is(errs[0], testutil.ErrSink) {
			t.Errorf("w=%d: query 0 err = %v, want ErrSink", workers, errs[0])
		}
		if errs[1] != nil {
			t.Errorf("w=%d: query 1 err = %v, want nil", workers, errs[1])
		}
		want, werr := testutil.SerialProject(t, plans[1], doc)
		if werr != nil {
			t.Fatal(werr)
		}
		if !bytes.Equal(want, good.Bytes()) {
			t.Errorf("w=%d: query 1 output differs after query 0's write error: %d vs %d bytes", workers, good.Len(), len(want))
		}
	}
}

// TestSerialFallback checks the documented fallbacks: one worker, degenerate
// worker counts and inputs smaller than a segment take the serial path and
// still produce correct output with honest byte accounting.
func TestSerialFallback(t *testing.T) {
	doc := testutil.BuildFig1Doc(4 << 10)
	plan := testutil.MakePlan(t, testutil.Fig1DTD, "/*, //australia//description#", core.Options{})
	eng := pipeline.New([]*core.Plan{plan})
	want, _, err := fig4.New(plan, fig4.Options{}).ProjectBytes(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []pipeline.Options{
		{Workers: 1},
		{Workers: 0},
		{Workers: -3},
		{Workers: 4}, // doc is smaller than the default segment size
	} {
		var out bytes.Buffer
		res, err := eng.Project(context.Background(), []io.Writer{&out}, bytes.NewReader(doc), opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("%+v: output differs", opts)
		}
		if res.Scan.BytesRead != int64(len(doc)) {
			t.Errorf("%+v: BytesRead = %d, want %d", opts, res.Scan.BytesRead, len(doc))
		}
	}
}

// TestDestinationMismatch pins the dsts contract.
func TestDestinationMismatch(t *testing.T) {
	plans := testutil.MakePlans(t, testutil.Fig1DTD,
		[]string{"/*, //item/name#", "/*, //asia//item#"}, core.Options{})
	eng := pipeline.New(plans)
	_, err := eng.Project(context.Background(), []io.Writer{io.Discard}, strings.NewReader("<site/>"), pipeline.Options{})
	if err == nil || !strings.Contains(err.Error(), "destinations") {
		t.Fatalf("err = %v, want destination-count error", err)
	}
}

// TestAggregateCountsDocumentOnce pins the Result.Aggregate contract: K
// queries over one document aggregate to one document's bytes read, while
// per-query work sums.
func TestAggregateCountsDocumentOnce(t *testing.T) {
	doc := testutil.BuildFig1Doc(32 << 10)
	plans := testutil.MakePlans(t, testutil.Fig1DTD, []string{
		"/*, //australia//description#",
		"/*, //item/name#",
		"/*, //asia//item#",
	}, core.Options{})
	eng := pipeline.New(plans)
	res, err := eng.Project(context.Background(), nil, bytes.NewReader(doc), pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	agg := res.Aggregate()
	if agg.BytesRead != res.Scan.BytesRead {
		t.Errorf("Aggregate.BytesRead = %d, want the shared pass's %d", agg.BytesRead, res.Scan.BytesRead)
	}
	var wantWritten, wantTags int64
	for _, q := range res.Query {
		wantWritten += q.BytesWritten
		wantTags += q.TagsMatched
	}
	if agg.BytesWritten != wantWritten {
		t.Errorf("Aggregate.BytesWritten = %d, want %d", agg.BytesWritten, wantWritten)
	}
	if agg.TagsMatched != wantTags {
		t.Errorf("Aggregate.TagsMatched = %d, want %d", agg.TagsMatched, wantTags)
	}
}

// TestStreamsInOrder checks that a destination sees the projection as one
// in-order stream even when written through a tiny-segment parallel
// pipeline.
func TestStreamsInOrder(t *testing.T) {
	doc := testutil.BuildFig1Doc(32 << 10)
	plans := testutil.MakePlans(t, testutil.Fig1DTD, []string{
		"/*, //australia//description#",
		"/*, //item/name#",
	}, core.Options{ChunkSize: 64})
	eng := pipeline.New(plans)
	want, err := testutil.SerialProject(t, plans[0], doc)
	if err != nil {
		t.Fatal(err)
	}
	var chunksSeen [][]byte
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 97)
		for {
			n, err := pr.Read(buf)
			if n > 0 {
				chunksSeen = append(chunksSeen, append([]byte(nil), buf[:n]...))
			}
			if err != nil {
				return
			}
		}
	}()
	_, err = eng.Project(context.Background(), []io.Writer{pw, io.Discard}, bytes.NewReader(doc), pipeline.Options{Workers: 4, SegmentSize: 256})
	pw.CloseWithError(err)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Join(chunksSeen, nil); !bytes.Equal(got, want) {
		t.Fatalf("streamed output differs: got %d bytes, want %d", len(got), len(want))
	}
}

// TestConcurrentRuns drives one immutable Engine from many goroutines at
// once, at K=1 and K=3 (meaningful under -race).
func TestConcurrentRuns(t *testing.T) {
	doc := testutil.BuildFig1Doc(48 << 10)
	specs := []string{"/*, //item/name#", "/*, //australia//description#", "/*, //asia//item#"}
	for _, k := range []int{1, 3} {
		plans := testutil.MakePlans(t, testutil.Fig1DTD, specs[:k], core.Options{ChunkSize: 256})
		eng := pipeline.New(plans)
		want := make([][]byte, k)
		for i, plan := range plans {
			w, err := testutil.SerialProject(t, plan, doc)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = w
		}
		errc := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func() {
				bufs := make([]bytes.Buffer, k)
				dsts := make([]io.Writer, k)
				for i := range bufs {
					dsts[i] = &bufs[i]
				}
				_, err := eng.Project(context.Background(), dsts, bytes.NewReader(doc), pipeline.Options{Workers: 3, SegmentSize: 1024})
				for i := range bufs {
					if err == nil && !bytes.Equal(bufs[i].Bytes(), want[i]) {
						err = fmt.Errorf("query %d output differs", i)
					}
				}
				errc <- err
			}()
		}
		for g := 0; g < 8; g++ {
			if err := <-errc; err != nil {
				t.Errorf("k=%d: %v", k, err)
			}
		}
	}
}

// TestScannerCandidates pins the scanner's contract on a tiny document:
// candidates are exactly the verified keyword occurrences, in order, with
// prefix collisions resolved to the unique valid keyword.
func TestScannerCandidates(t *testing.T) {
	plan := testutil.MakePlan(t, testutil.PrefixDTD, "/*, //AbstractText#", core.Options{})
	sp := core.NewScanPlan(plan)
	doc := []byte(`<r><rec><Abstract>a</Abstract><AbstractText x="1">b</AbstractText></rec></r>`)
	cands := sp.NewScanner().Scan(nil, doc, 0, len(doc), true)

	var got []string
	for _, c := range cands {
		got = append(got, fmt.Sprintf("%d:%s", c.Pos, string(doc[c.Pos:c.Pos+int64(c.KwLen)])))
	}
	// The union vocabulary for this query is {<r, </r, <AbstractText,
	// </AbstractText}: the automaton never searches for <rec or <Abstract,
	// and "<Abstract>" must not be mistaken for a prefix of <AbstractText.
	want := []string{
		"0:<r", "30:<AbstractText", "51:</AbstractText", "72:</r",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("candidates = %v, want %v", got, want)
	}
	for _, c := range cands {
		if !c.Complete || c.Err() != nil {
			t.Errorf("candidate at %d: Complete=%v Err=%v", c.Pos, c.Complete, c.Err())
		}
	}
}

// TestCancelMidStream cancels projections mid-stream across the K×W matrix
// and checks that Project returns ctx.Err() promptly and drains its pipeline
// — the goroutine count returns to baseline after every cell.
func TestCancelMidStream(t *testing.T) {
	doc := testutil.BuildFig1Doc(64 << 10)
	specs := []string{"/*, //australia//description#", "/*, //item/name#", "/*, //asia//item#"}
	for _, k := range []int{1, 3} {
		plans := testutil.MakePlans(t, testutil.Fig1DTD, specs[:k], core.Options{ChunkSize: 64})
		eng := pipeline.New(plans)
		for _, workers := range []int{1, 2, 4, 8} {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			_, err := eng.Project(ctx, nil, testutil.CancelAfterReader(doc, 8<<10, cancel),
				pipeline.Options{Workers: workers, SegmentSize: 512})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("k=%d w=%d: err = %v, want context.Canceled", k, workers, err)
			}
			for i, qerr := range testutil.PerQueryErrors(t, err, k) {
				if !errors.Is(qerr, context.Canceled) {
					t.Errorf("k=%d w=%d query %d: err = %v, want context.Canceled", k, workers, i, qerr)
				}
			}
			waitForGoroutines(t, before)
		}

		// A pre-cancelled context never starts the pipeline, on both entry
		// points.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := eng.Project(ctx, nil, bytes.NewReader(doc), pipeline.Options{Workers: 4}); !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d pre-cancelled: err = %v, want context.Canceled", k, err)
		}
		if _, err := eng.ProjectBuffered(ctx, nil, doc, pipeline.Options{Workers: 4, SegmentSize: 512}); !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d pre-cancelled buffered: err = %v, want context.Canceled", k, err)
		}
	}
}

// TestEngineReusableAfterCancel checks that a cancelled run does not poison
// the shared engine: the same Engine value must produce byte-identical
// output on the next (uncancelled) run, serial and parallel alike.
func TestEngineReusableAfterCancel(t *testing.T) {
	doc := testutil.BuildFig1Doc(64 << 10)
	plans := testutil.MakePlans(t, testutil.Fig1DTD, []string{
		"/*, //australia//description#",
		"/*, //item/name#",
	}, core.Options{ChunkSize: 64})
	eng := pipeline.New(plans)
	want := make([][]byte, len(plans))
	for i, plan := range plans {
		w, err := testutil.SerialProject(t, plan, doc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := eng.Project(ctx, nil, testutil.CancelAfterReader(doc, 8<<10, cancel),
			pipeline.Options{Workers: workers, SegmentSize: 512})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("w=%d: cancelled run err = %v, want context.Canceled", workers, err)
		}
		bufs := make([]bytes.Buffer, len(plans))
		dsts := []io.Writer{&bufs[0], &bufs[1]}
		if _, err := eng.Project(context.Background(), dsts, bytes.NewReader(doc),
			pipeline.Options{Workers: workers, SegmentSize: 512}); err != nil {
			t.Fatalf("w=%d: rerun after cancel: %v", workers, err)
		}
		for i := range bufs {
			if !bytes.Equal(bufs[i].Bytes(), want[i]) {
				t.Errorf("w=%d query %d: output differs after a cancelled run", workers, i)
			}
		}
	}
}

// waitForGoroutines retries until the goroutine count returns to (near) the
// baseline; the pipeline's reader and workers unwind asynchronously after
// Project returns.
func waitForGoroutines(t *testing.T, baseline int) {
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
