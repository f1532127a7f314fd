// Package testutil is the shared differential-equivalence harness of the
// unified K×W projection pipeline. It owns the test fixtures (the paper's
// Fig. 1 DTD, a prefix-colliding DTD, synthetic document builders, the XMark
// and MEDLINE workloads) and a Grid runner that checks every (K queries) ×
// (W workers) cell for byte-identity against the serial single-query
// reference — over plain readers, chunked readers, in-memory buffers, a
// failing destination and cancelled contexts. Packages under test call
// Grid.Run instead of keeping private equivalence tables, so "every cell
// matches serial" is asserted in exactly one place.
package testutil

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/dtd"
	"smp/internal/fig4"
	"smp/internal/index"
	"smp/internal/paths"
	"smp/internal/pipeline"
	"smp/internal/xmlgen"
)

// Fig1DTD is the simplified XMark DTD of paper Fig. 1 (leaf elements are
// #PCDATA).
const Fig1DTD = `<!DOCTYPE site [
	<!ELEMENT site (regions)>
	<!ELEMENT regions (africa, asia, australia)>
	<!ELEMENT africa (item*)>
	<!ELEMENT asia (item*)>
	<!ELEMENT australia (item*)>
	<!ELEMENT item (location,name,payment,description,shipping,incategory+)>
	<!ELEMENT incategory EMPTY>
	<!ATTLIST incategory category ID #REQUIRED>
	<!ELEMENT location (#PCDATA)>
	<!ELEMENT name (#PCDATA)>
	<!ELEMENT payment (#PCDATA)>
	<!ELEMENT description (#PCDATA)>
	<!ELEMENT shipping (#PCDATA)>
]>`

// PrefixDTD has tagnames that are prefixes of each other and one very long
// tagname, to exercise longest-match verification and keyword straddling.
const PrefixDTD = `<!DOCTYPE r [
	<!ELEMENT r (rec*)>
	<!ELEMENT rec (Abstract?, AbstractText, AbstractTextTranslatedVersion?)>
	<!ELEMENT Abstract (#PCDATA)>
	<!ELEMENT AbstractText (#PCDATA)>
	<!ELEMENT AbstractTextTranslatedVersion (#PCDATA)>
]>`

// MakePlan compiles one projection plan from DTD source and a path spec.
func MakePlan(t testing.TB, dtdSrc, pathSpec string, opts core.Options) *core.Plan {
	t.Helper()
	table, err := compile.Compile(dtd.MustParse(dtdSrc), paths.MustParseSet(pathSpec), compile.Options{})
	if err != nil {
		t.Fatalf("compile %q: %v", pathSpec, err)
	}
	return core.NewPlan(table, opts)
}

// MakePlans compiles one plan per path spec over a shared DTD.
func MakePlans(t testing.TB, dtdSrc string, pathSpecs []string, opts core.Options) []*core.Plan {
	t.Helper()
	plans := make([]*core.Plan, len(pathSpecs))
	for i, spec := range pathSpecs {
		plans[i] = MakePlan(t, dtdSrc, spec, opts)
	}
	return plans
}

// BuildFig1Doc synthesizes a conforming Fig. 1 document of at least n bytes
// with attribute values containing '<' and '/' and bachelor tags mixed in.
func BuildFig1Doc(n int) []byte {
	var b bytes.Buffer
	b.WriteString(`<site><regions><africa>`)
	for i := 0; b.Len() < n/3; i++ {
		fmt.Fprintf(&b, `<item><location>loc%d</location><name>n%d</name><payment>cash</payment><description>africa item %d with some text padding</description><shipping/><incategory category="c%d"/></item>`, i, i, i, i)
	}
	b.WriteString(`</africa><asia>`)
	for i := 0; b.Len() < 2*n/3; i++ {
		fmt.Fprintf(&b, `<item ><location a="x<nav y" b='also </desc here'>asia</location><name>m%d</name><payment>wire</payment><description>asia item %d</description><shipping>boat</shipping><incategory category="k"/></item>`, i, i)
	}
	b.WriteString(`</asia><australia>`)
	for i := 0; b.Len() < n; i++ {
		fmt.Fprintf(&b, `<item><location>oz</location><name>au%d</name><payment>card</payment><description>australian description number %d, deliberately long so that copy regions span several segments when the segment size is tiny</description><shipping>air</shipping><incategory category="z%d"/></item>`, i, i, i)
	}
	b.WriteString(`</australia></regions></site>`)
	return b.Bytes()
}

// BuildPrefixDoc synthesizes a conforming prefix-collision document of at
// least n bytes.
func BuildPrefixDoc(n int) []byte {
	var b bytes.Buffer
	b.WriteString(`<r>`)
	for i := 0; b.Len() < n; i++ {
		fmt.Fprintf(&b, `<rec><Abstract>short %d</Abstract><AbstractText>text %d</AbstractText><AbstractTextTranslatedVersion attr="v>alue">translated %d</AbstractTextTranslatedVersion></rec>`, i, i, i)
	}
	b.WriteString(`</r>`)
	return b.Bytes()
}

// SerialProject runs plan standalone through the paper's serial engine
// (internal/fig4) — the byte-identity reference every pipeline cell is
// compared against.
func SerialProject(t testing.TB, plan *core.Plan, doc []byte) ([]byte, error) {
	t.Helper()
	out, _, err := fig4.New(plan, fig4.Options{}).ProjectBytes(context.Background(), doc)
	return out, err
}

// CorpusEngine adapts the Fig. 4 engine to the counters internal/corpus
// aggregates (core.Stats), so a batch can run it as its serial reference.
type CorpusEngine struct{ *fig4.Prefilter }

// Project runs the Fig. 4 engine and returns the counters it shares with the
// production pipeline.
func (e CorpusEngine) Project(ctx context.Context, dst io.Writer, src io.Reader) (core.Stats, error) {
	st, err := e.Prefilter.Project(ctx, dst, src)
	return st.Stats, err
}

// FirstDiff returns the region around the first byte where a and b differ.
func FirstDiff(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 40
	if lo < 0 {
		lo = 0
	}
	hi := i + 80
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}

// ChunkedReader yields doc in small, irregular reads, so segment fills span
// many Read calls.
func ChunkedReader(doc []byte) io.Reader { return &irregularReader{data: doc} }

type irregularReader struct {
	data []byte
	off  int
	step int
}

func (r *irregularReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	r.step = r.step%7 + 1
	n := r.step * 13
	if n > len(p) {
		n = len(p)
	}
	if n > len(r.data)-r.off {
		n = len(r.data) - r.off
	}
	copy(p, r.data[r.off:r.off+n])
	r.off += n
	return n, nil
}

// ErrSink is the error FailingWriter returns once full.
var ErrSink = errors.New("testutil: sink full")

// FailingWriter returns a destination that accepts limit bytes and then
// fails every write with ErrSink.
func FailingWriter(limit int) io.Writer { return &failingWriter{limit: limit} }

type failingWriter struct{ n, limit int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		return 0, ErrSink
	}
	w.n += len(p)
	return len(p), nil
}

// ErrReader yields data, then fails with err. A zero-length data slice fails
// on the first read.
func ErrReader(data []byte, err error) io.Reader { return &errReader{data: data, failure: err} }

type errReader struct {
	data    []byte
	failure error
	off     int
}

func (r *errReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, r.failure
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// CancelAfterReader yields data in small reads and cancels the attached
// context once limit bytes have streamed, simulating a client that
// disconnects mid-stream. Reads keep succeeding after the cancel — the
// pipeline itself must notice the context, not rely on the reader failing.
func CancelAfterReader(data []byte, limit int, cancel context.CancelFunc) io.Reader {
	return &cancelAfterReader{data: data, limit: limit, cancel: cancel}
}

type cancelAfterReader struct {
	data   []byte
	off    int
	limit  int
	cancel context.CancelFunc
}

func (r *cancelAfterReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	if len(p) > 256 {
		p = p[:256]
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	if r.off >= r.limit && r.cancel != nil {
		r.cancel()
		r.cancel = nil
	}
	return n, nil
}

// PerQueryErrors unpacks a run error into one slot per query: a nil error
// yields k nil slots, a *pipeline.Error yields its slots, anything else
// fails the test.
func PerQueryErrors(t testing.TB, err error, k int) []error {
	t.Helper()
	if err == nil {
		return make([]error, k)
	}
	var perr *pipeline.Error
	if !errors.As(err, &perr) {
		t.Fatalf("run error is %T, want *pipeline.Error: %v", err, err)
	}
	if len(perr.Errs) != k {
		t.Fatalf("run error has %d slots, want %d", len(perr.Errs), k)
	}
	return perr.Errs
}

// Workload is one named corpus: a DTD, a document and the query specs the
// grid cycles through when it needs K queries.
type Workload struct {
	Name  string
	DTD   string
	Doc   []byte
	Specs []string
}

// XMarkWorkload is the bundled XMark corpus with its benchmark query set.
func XMarkWorkload(size int) Workload {
	qs := xmlgen.XMarkQueries()
	specs := make([]string, len(qs))
	for i := range qs {
		specs[i] = qs[i].Paths
	}
	return Workload{
		Name:  "xmark",
		DTD:   xmlgen.XMarkDTD(),
		Doc:   xmlgen.XMarkBytes(xmlgen.Config{TargetSize: int64(size), Seed: 7}),
		Specs: specs,
	}
}

// MedlineWorkload is the bundled MEDLINE corpus with its benchmark query set.
func MedlineWorkload(size int) Workload {
	qs := xmlgen.MedlineQueries()
	specs := make([]string, len(qs))
	for i := range qs {
		specs[i] = qs[i].Paths
	}
	return Workload{
		Name:  "medline",
		DTD:   xmlgen.MedlineDTD(),
		Doc:   xmlgen.MedlineBytes(xmlgen.Config{TargetSize: int64(size), Seed: 7}),
		Specs: specs,
	}
}

// Fig1Workload is the synthetic Fig. 1 corpus with overlapping and disjoint
// query vocabularies.
func Fig1Workload(size int) Workload {
	return Workload{
		Name: "fig1",
		DTD:  Fig1DTD,
		Doc:  BuildFig1Doc(size),
		Specs: []string{
			"/*, //australia//description#",
			"/*, //item/name#",
			"/*, //asia//item#",
			"/*, //item/payment#",
		},
	}
}

// PrefixWorkload is the prefix-colliding corpus: tagnames that are prefixes
// of each other, whose longest-first resolution must not leak across queries.
func PrefixWorkload(size int) Workload {
	return Workload{
		Name: "prefix",
		DTD:  PrefixDTD,
		Doc:  BuildPrefixDoc(size),
		Specs: []string{
			"/*, //Abstract#",
			"/*, //AbstractText#",
			"/*, //AbstractTextTranslatedVersion#",
		},
	}
}

// Grid is the differential equivalence harness: for every K in Ks it merges
// the workload's first K queries (cycling) into one pipeline engine, and for
// every W in Ws, chunk and segment size it runs the projection over a plain
// reader, a chunked reader and the in-memory buffered path, asserting every
// query's output and error are identical to that query's standalone serial
// run. Cells also exercise the failure paths: a failing destination on query
// 0 must not disturb the others, a pre-cancelled context must fail every
// query with context.Canceled before any read, and (for documents of at
// least MinCancelDoc bytes) a mid-stream cancellation must surface
// context.Canceled.
type Grid struct {
	Ks           []int // query counts; default {1, 2, 4, 8}
	Ws           []int // worker counts; default {1, 2, 4, 8}
	Chunks       []int // run chunk sizes; default {301, 8 << 10}
	SegmentSizes []int // parallel segment sizes; default {0, 512}
}

// MinCancelDoc is the smallest document the grid's mid-stream cancellation
// case runs on; smaller workloads skip it (the run can finish before the
// cancel lands).
const MinCancelDoc = 32 << 10

func defaultInts(v, def []int) []int {
	if len(v) == 0 {
		return def
	}
	return v
}

// RoundTripIndex builds the candidate index of doc for the engine's union
// vocabulary and pushes it through the sidecar codec (Encode, Decode, Bind),
// so grid replays exercise exactly what a persisted sidecar would serve.
func RoundTripIndex(t testing.TB, eng *pipeline.Engine, doc []byte) *index.Index {
	t.Helper()
	enc, err := index.Build(doc, eng.ScanPlan()).Encode()
	if err != nil {
		t.Fatalf("encode index: %v", err)
	}
	ix, err := index.Decode(enc)
	if err != nil {
		t.Fatalf("decode index: %v", err)
	}
	if err := ix.Bind(doc); err != nil {
		t.Fatalf("bind index: %v", err)
	}
	return ix
}

// Run drives the full grid over one workload.
func (g Grid) Run(t *testing.T, wl Workload) {
	ks := defaultInts(g.Ks, []int{1, 2, 4, 8})
	ws := defaultInts(g.Ws, []int{1, 2, 4, 8})
	chunks := defaultInts(g.Chunks, []int{301, 8 << 10})
	segs := defaultInts(g.SegmentSizes, []int{0, 512})

	// The super index is built from the union vocabulary of the largest K.
	// The specs cycle, so it covers every smaller K's engine — replaying it
	// there is the persisted form of PR 5's subset-oracle property.
	maxK := 0
	for _, k := range ks {
		if k > maxK {
			maxK = k
		}
	}
	superSpecs := make([]string, maxK)
	for i := range superSpecs {
		superSpecs[i] = wl.Specs[i%len(wl.Specs)]
	}
	superIx := RoundTripIndex(t, pipeline.New(MakePlans(t, wl.DTD, superSpecs, core.Options{})), wl.Doc)

	for _, k := range ks {
		specs := make([]string, k)
		for i := range specs {
			specs[i] = wl.Specs[i%len(wl.Specs)]
		}
		plans := MakePlans(t, wl.DTD, specs, core.Options{})
		eng := pipeline.New(plans)
		want := make([][]byte, k)
		wantErr := make([]error, k)
		for i, p := range plans {
			want[i], wantErr[i] = SerialProject(t, p, wl.Doc)
		}
		exactIx := RoundTripIndex(t, eng, wl.Doc)
		for _, w := range ws {
			w := w
			t.Run(fmt.Sprintf("%s/k%d/w%d", wl.Name, k, w), func(t *testing.T) {
				for _, chunk := range chunks {
					for _, seg := range segs {
						opts := pipeline.Options{Workers: w, ChunkSize: chunk, SegmentSize: seg}
						g.checkCell(t, eng, wl.Doc, want, wantErr, exactIx, superIx, opts)
					}
				}
			})
		}
	}
}

// checkCell runs one (K, W, chunk, segment) cell through every input and
// failure shape, including replays of the persisted candidate index (the
// cell's exact vocabulary and the covering super-vocabulary).
func (g Grid) checkCell(t *testing.T, eng *pipeline.Engine, doc []byte, want [][]byte, wantErr []error, exactIx, superIx *index.Index, opts pipeline.Options) {
	t.Helper()
	k := eng.Len()
	label := fmt.Sprintf("chunk=%d seg=%d", opts.ChunkSize, opts.SegmentSize)

	compare := func(shape string, outs [][]byte, errs []error) {
		t.Helper()
		for i := 0; i < k; i++ {
			if (wantErr[i] == nil) != (errs[i] == nil) {
				t.Fatalf("%s %s query %d: serial err = %v, pipeline err = %v", label, shape, i, wantErr[i], errs[i])
			}
			if wantErr[i] != nil {
				if wantErr[i].Error() != errs[i].Error() {
					t.Errorf("%s %s query %d: serial err %q, pipeline err %q", label, shape, i, wantErr[i], errs[i])
				}
				continue
			}
			if !bytes.Equal(want[i], outs[i]) {
				t.Fatalf("%s %s query %d: output differs: got %d bytes, want %d\ngot:  %.120q\nwant: %.120q",
					label, shape, i, len(outs[i]), len(want[i]), FirstDiff(outs[i], want[i]), FirstDiff(want[i], outs[i]))
			}
		}
	}

	run := func(ctx context.Context, src io.Reader, overrides map[int]io.Writer) ([][]byte, []error, pipeline.Result, error) {
		t.Helper()
		bufs := make([]bytes.Buffer, k)
		dsts := make([]io.Writer, k)
		for i := range dsts {
			if w, ok := overrides[i]; ok {
				dsts[i] = w
			} else {
				dsts[i] = &bufs[i]
			}
		}
		res, err := eng.Project(ctx, dsts, src, opts)
		errs := PerQueryErrors(t, err, k)
		outs := make([][]byte, k)
		for i := range bufs {
			outs[i] = bufs[i].Bytes()
		}
		return outs, errs, res, err
	}

	ctx := context.Background()

	// Plain reader.
	outs, errs, res, _ := run(ctx, bytes.NewReader(doc), nil)
	compare("reader", outs, errs)
	if res.Scan.BytesRead > int64(len(doc)) {
		t.Errorf("%s reader: Scan.BytesRead = %d > document %d", label, res.Scan.BytesRead, len(doc))
	}

	// Chunked reader: segment fills span many small Read calls.
	outs, errs, _, _ = run(ctx, ChunkedReader(doc), nil)
	compare("chunked", outs, errs)

	// In-memory buffered path.
	{
		bufs := make([]bytes.Buffer, k)
		dsts := make([]io.Writer, k)
		for i := range dsts {
			dsts[i] = &bufs[i]
		}
		_, err := eng.ProjectBuffered(ctx, dsts, doc, opts)
		errs := PerQueryErrors(t, err, k)
		outs := make([][]byte, k)
		for i := range bufs {
			outs[i] = bufs[i].Bytes()
		}
		compare("buffered", outs, errs)
	}

	// Indexed replay: the stored candidate stream replayed through the same
	// driver must be byte-identical to the scan — for the index built from
	// this cell's exact vocabulary and for one built from a covering
	// superset (whose extra candidates the replay must ignore).
	for _, c := range []struct {
		shape string
		ix    *index.Index
	}{{"indexed", exactIx}, {"indexed-subset", superIx}} {
		if !c.ix.Covers(eng.ScanPlan()) {
			t.Fatalf("%s %s: index does not cover the engine vocabulary", label, c.shape)
		}
		bufs := make([]bytes.Buffer, k)
		dsts := make([]io.Writer, k)
		for i := range dsts {
			dsts[i] = &bufs[i]
		}
		_, err := eng.Replay(ctx, dsts, c.ix.Doc(), c.ix.Keywords(), c.ix.Tokens(), c.ix.Candidates(), opts)
		errs := PerQueryErrors(t, err, k)
		outs := make([][]byte, k)
		for i := range bufs {
			outs[i] = bufs[i].Bytes()
		}
		compare(c.shape, outs, errs)
	}

	// Write-error isolation: query 0's destination fails after 64 bytes;
	// every other query must be untouched.
	allClean := true
	for i := 0; i < k; i++ {
		if wantErr[i] != nil {
			allClean = false
		}
	}
	if allClean && len(want[0]) > 128 {
		outs, errs, _, runErr := run(ctx, bytes.NewReader(doc), map[int]io.Writer{0: FailingWriter(64)})
		if !errors.Is(errs[0], ErrSink) || !errors.Is(runErr, ErrSink) {
			t.Fatalf("%s write-error: query 0 err = %v (run err %v), want ErrSink", label, errs[0], runErr)
		}
		for i := 1; i < k; i++ {
			if errs[i] != nil {
				t.Errorf("%s write-error: query %d err = %v, want nil", label, i, errs[i])
			} else if !bytes.Equal(want[i], outs[i]) {
				t.Errorf("%s write-error: query %d output differs after query 0's failure", label, i)
			}
		}
	}

	// Pre-cancelled context: every query fails before the first read.
	{
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		_, errs, res, runErr := run(cctx, bytes.NewReader(doc), nil)
		if !errors.Is(runErr, context.Canceled) {
			t.Fatalf("%s pre-cancelled: err = %v, want context.Canceled", label, runErr)
		}
		for i, qerr := range errs {
			if !errors.Is(qerr, context.Canceled) {
				t.Errorf("%s pre-cancelled: query %d err = %v, want context.Canceled", label, i, qerr)
			}
		}
		if res.Scan.BytesRead != 0 {
			t.Errorf("%s pre-cancelled: read %d bytes", label, res.Scan.BytesRead)
		}
	}

	// Mid-stream cancellation, observed at a segment boundary.
	if len(doc) >= MinCancelDoc {
		cctx, cancel := context.WithCancel(ctx)
		src := CancelAfterReader(doc, len(doc)/4, cancel)
		_, _, _, runErr := run(cctx, src, nil)
		cancel()
		if !errors.Is(runErr, context.Canceled) {
			t.Fatalf("%s mid-cancel: err = %v, want context.Canceled", label, runErr)
		}
	}
}
