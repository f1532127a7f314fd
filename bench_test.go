package smp

// This file contains the testing.B benchmark harness: one benchmark (with
// sub-benchmarks) per table and figure of the paper's evaluation section,
// plus the ablation benches listed in DESIGN.md. The benchmarks operate on
// deterministic in-memory documents, so `go test -bench=. -benchmem`
// regenerates the measurements behind EXPERIMENTS.md. The cmd/smpbench tool
// prints the same experiments as formatted tables.

import (
	"bytes"
	"context"
	"io"
	"strconv"
	"testing"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/corpus"
	"smp/internal/dtd"
	"smp/internal/fig4"
	"smp/internal/paths"
	"smp/internal/pipeline"
	"smp/internal/projection"
	"smp/internal/query"
	"smp/internal/sax"
	"smp/internal/testutil"
	"smp/internal/xmlgen"
)

// benchSize is the generated document size used by the benchmarks. It is
// large enough for stable per-byte numbers yet small enough that the full
// suite runs in a couple of minutes.
const benchSize = 4 << 20

var (
	benchXMarkDoc   []byte
	benchMedlineDoc []byte
	benchXMarkDTD   *dtd.DTD
	benchMedlineDTD *dtd.DTD
)

func benchSetup(b *testing.B) {
	b.Helper()
	if benchXMarkDoc == nil {
		benchXMarkDoc = xmlgen.XMarkBytes(xmlgen.Config{TargetSize: benchSize, Seed: 1})
		benchMedlineDoc = xmlgen.MedlineBytes(xmlgen.Config{TargetSize: benchSize, Seed: 1})
		benchXMarkDTD = dtd.MustParse(xmlgen.XMarkDTD())
		benchMedlineDTD = dtd.MustParse(xmlgen.MedlineDTD())
	}
}

func compileFor(b *testing.B, schema *dtd.DTD, pathSpec string, copts compile.Options) *compile.Table {
	b.Helper()
	table, err := compile.Compile(schema, paths.MustParseSet(pathSpec), copts)
	if err != nil {
		b.Fatal(err)
	}
	return table
}

// newFig4 wraps a compiled table in the paper's Fig. 4 engine.
func newFig4(table *compile.Table, popts core.Options, fopts fig4.Options) *fig4.Prefilter {
	return fig4.New(core.NewPlan(table, popts), fopts)
}

func runPrefilterBench(b *testing.B, pf *fig4.Prefilter, doc []byte) {
	b.Helper()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	var lastStats fig4.Stats
	for i := 0; i < b.N; i++ {
		_, st, err := pf.ProjectBytes(context.Background(), doc)
		if err != nil {
			b.Fatal(err)
		}
		lastStats = st
	}
	b.StopTimer()
	b.ReportMetric(lastStats.CharCompPercent(), "charcomp_%")
	b.ReportMetric(lastStats.AvgShift(), "avgshift_chars")
	b.ReportMetric(lastStats.InitialJumpPercent(), "initjump_%")
	b.ReportMetric(100*lastStats.OutputRatio(), "output_%")
}

// BenchmarkTableI_XMark regenerates Table I: SMP prefiltering for every
// XMark benchmark query. The per-query metrics (charcomp_%, avgshift_chars,
// initjump_%, output_%) correspond to the paper's columns.
func BenchmarkTableI_XMark(b *testing.B) {
	benchSetup(b)
	for _, q := range xmlgen.XMarkQueries() {
		q := q
		b.Run(q.ID, func(b *testing.B) {
			table := compileFor(b, benchXMarkDTD, q.Paths, compile.Options{})
			runPrefilterBench(b, newFig4(table, core.Options{}, fig4.Options{}), benchXMarkDoc)
		})
	}
}

// BenchmarkTableII_Medline regenerates Table II: SMP prefiltering for the
// MEDLINE XPath queries M1-M5.
func BenchmarkTableII_Medline(b *testing.B) {
	benchSetup(b)
	for _, q := range xmlgen.MedlineQueries() {
		q := q
		b.Run(q.ID, func(b *testing.B) {
			table := compileFor(b, benchMedlineDTD, q.Paths, compile.Options{})
			runPrefilterBench(b, newFig4(table, core.Options{}, fig4.Options{}), benchMedlineDoc)
		})
	}
}

// BenchmarkTableIII_Projection regenerates Table III: SMP against the
// tokenizing reference projector (the type-based-projection baseline class)
// on the query subset the paper compares (XM3, XM6, XM7, XM19).
func BenchmarkTableIII_Projection(b *testing.B) {
	benchSetup(b)
	for _, id := range []string{"XM3", "XM6", "XM7", "XM19"} {
		q, _ := xmlgen.QueryByID(id)
		b.Run(id+"/SMP", func(b *testing.B) {
			table := compileFor(b, benchXMarkDTD, q.Paths, compile.Options{})
			runPrefilterBench(b, newFig4(table, core.Options{}, fig4.Options{}), benchXMarkDoc)
		})
		b.Run(id+"/Tokenizing", func(b *testing.B) {
			proj := projection.New(paths.MustParseSet(q.Paths), projection.Options{})
			b.SetBytes(int64(len(benchXMarkDoc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := proj.ProjectBytes(benchXMarkDoc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7a_DOMEngine regenerates Fig. 7(a): loading and evaluating
// query XM13 with the in-memory engine on the full document versus on the
// SMP projection. (The paper's memory-budget failures are covered by the
// experiment harness and tests; the benchmark measures the work ratio.)
func BenchmarkFig7a_DOMEngine(b *testing.B) {
	benchSetup(b)
	q, _ := xmlgen.QueryByID("XM13")
	set := paths.MustParseSet(q.Paths)
	table := compileFor(b, benchXMarkDTD, q.Paths, compile.Options{})
	projected, _, err := newFig4(table, core.Options{}, fig4.Options{}).ProjectBytes(context.Background(), benchXMarkDoc)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("EngineAlone", func(b *testing.B) {
		b.SetBytes(int64(len(benchXMarkDoc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dom, err := (&query.DOMEngine{}).LoadBytes(benchXMarkDoc)
			if err != nil {
				b.Fatal(err)
			}
			dom.EvaluateWorkload(set)
		}
	})
	b.Run("SMPPlusEngine", func(b *testing.B) {
		pf := newFig4(table, core.Options{}, fig4.Options{})
		b.SetBytes(int64(len(benchXMarkDoc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			proj, _, err := pf.ProjectBytes(context.Background(), benchXMarkDoc)
			if err != nil {
				b.Fatal(err)
			}
			dom, err := (&query.DOMEngine{}).LoadBytes(proj)
			if err != nil {
				b.Fatal(err)
			}
			dom.EvaluateWorkload(set)
		}
	})
	b.Run("EngineOnProjectionOnly", func(b *testing.B) {
		b.SetBytes(int64(len(projected)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dom, err := (&query.DOMEngine{}).LoadBytes(projected)
			if err != nil {
				b.Fatal(err)
			}
			dom.EvaluateWorkload(set)
		}
	})
}

// BenchmarkFig7b_Pipelined regenerates Fig. 7(b): the streaming engine
// evaluating the MEDLINE queries stand-alone versus pipelined behind SMP
// prefiltering.
func BenchmarkFig7b_Pipelined(b *testing.B) {
	benchSetup(b)
	engine := &query.StreamEngine{}
	for _, q := range xmlgen.MedlineQueries() {
		q := q
		set := paths.MustParseSet(q.Paths)
		b.Run(q.ID+"/EngineAlone", func(b *testing.B) {
			b.SetBytes(int64(len(benchMedlineDoc)))
			for i := 0; i < b.N; i++ {
				if _, err := engine.EvaluateWorkload(newSliceReader(benchMedlineDoc), set, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.ID+"/Pipelined", func(b *testing.B) {
			table := compileFor(b, benchMedlineDTD, q.Paths, compile.Options{})
			pf := newFig4(table, core.Options{}, fig4.Options{})
			b.SetBytes(int64(len(benchMedlineDoc)))
			for i := 0; i < b.N; i++ {
				pr, pw := io.Pipe()
				go func() {
					_, err := pf.Project(context.Background(), pw, newSliceReader(benchMedlineDoc))
					pw.CloseWithError(err)
				}()
				if _, err := engine.EvaluateWorkload(pr, set, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7c_Throughput regenerates Fig. 7(c): SAX tokenization of the
// full input versus SMP prefiltering, on both datasets.
func BenchmarkFig7c_Throughput(b *testing.B) {
	benchSetup(b)
	datasets := []struct {
		name   string
		doc    []byte
		schema *dtd.DTD
		qs     []xmlgen.Query
	}{
		{"XMark", benchXMarkDoc, benchXMarkDTD, xmlgen.XMarkQueries()},
		{"MEDLINE", benchMedlineDoc, benchMedlineDTD, xmlgen.MedlineQueries()},
	}
	for _, d := range datasets {
		d := d
		b.Run(d.name+"/SAXParse", func(b *testing.B) {
			b.SetBytes(int64(len(d.doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sax.ParseBytes(d.doc, sax.HandlerFunc(func(sax.Event) error { return nil }), sax.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		// One representative query per dataset keeps the -bench=. run short;
		// Table I/II benches cover the full per-query spread.
		repID := "XM13"
		if d.name == "MEDLINE" {
			repID = "M4"
		}
		q, _ := xmlgen.QueryByID(repID)
		b.Run(d.name+"/SMPPrefilter_"+repID, func(b *testing.B) {
			table := compileFor(b, d.schema, q.Paths, compile.Options{})
			runPrefilterBench(b, newFig4(table, core.Options{}, fig4.Options{}), d.doc)
		})
	}
}

// BenchmarkAblationAlgorithms quantifies the choice of string matching
// algorithm (skip-based BM/CW vs. alternatives that inspect every character).
func BenchmarkAblationAlgorithms(b *testing.B) {
	benchSetup(b)
	q, _ := xmlgen.QueryByID("XM13")
	table := compileFor(b, benchXMarkDTD, q.Paths, compile.Options{})
	configs := []struct {
		name string
		opts fig4.Options
	}{
		{"BoyerMoore_CommentzWalter", fig4.Options{Single: fig4.SingleBoyerMoore, Multi: fig4.MultiCommentzWalter}},
		{"Horspool_SetHorspool", fig4.Options{Single: fig4.SingleHorspool, Multi: fig4.MultiSetHorspool}},
		{"BoyerMoore_AhoCorasick", fig4.Options{Single: fig4.SingleBoyerMoore, Multi: fig4.MultiAhoCorasick}},
		{"Naive_Naive", fig4.Options{Single: fig4.SingleNaive, Multi: fig4.MultiNaive}},
	}
	for _, c := range configs {
		c := c
		b.Run(c.name, func(b *testing.B) {
			runPrefilterBench(b, newFig4(table, core.Options{}, c.opts), benchXMarkDoc)
		})
	}
}

// BenchmarkAblationInitialJumps isolates the XML-specific initial jump
// offsets (table J on versus off).
func BenchmarkAblationInitialJumps(b *testing.B) {
	benchSetup(b)
	q, _ := xmlgen.QueryByID("XM6")
	b.Run("WithJumps", func(b *testing.B) {
		table := compileFor(b, benchXMarkDTD, q.Paths, compile.Options{})
		runPrefilterBench(b, newFig4(table, core.Options{}, fig4.Options{}), benchXMarkDoc)
	})
	b.Run("WithoutJumps", func(b *testing.B) {
		table := compileFor(b, benchXMarkDTD, q.Paths, compile.Options{DisableInitialJumps: true})
		runPrefilterBench(b, newFig4(table, core.Options{}, fig4.Options{}), benchXMarkDoc)
	})
}

// BenchmarkAblationChunkSize varies the streaming window chunk size (the
// paper uses eight times the system page size).
func BenchmarkAblationChunkSize(b *testing.B) {
	benchSetup(b)
	q, _ := xmlgen.QueryByID("XM14")
	table := compileFor(b, benchXMarkDTD, q.Paths, compile.Options{})
	for _, chunk := range []int{4 << 10, 32 << 10, 256 << 10} {
		chunk := chunk
		b.Run(xmlgenByteName(chunk), func(b *testing.B) {
			runPrefilterBench(b, newFig4(table, core.Options{ChunkSize: chunk}, fig4.Options{}), benchXMarkDoc)
		})
	}
}

func xmlgenByteName(n int) string {
	switch {
	case n >= 1<<20:
		return "chunk_" + itoa(n>>20) + "MiB"
	case n >= 1<<10:
		return "chunk_" + itoa(n>>10) + "KiB"
	default:
		return "chunk_" + itoa(n) + "B"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkCorpusParallel measures aggregate corpus throughput: a batch of
// distinct XMark-like documents sharded across the worker-pool runner at
// 1, 2, 4 and 8 workers, all sharing one compiled, goroutine-safe engine.
// On a multicore machine the aggregate bytes/s scale close to linearly with
// the worker count until the memory bus saturates; the serial (workers_1)
// sub-benchmark is the baseline the speedup is measured against.
func BenchmarkCorpusParallel(b *testing.B) {
	benchSetup(b)
	q, _ := xmlgen.QueryByID("XM13")
	table := compileFor(b, benchXMarkDTD, q.Paths, compile.Options{})
	engine := newFig4(table, core.Options{}, fig4.Options{})

	const corpusDocs = 16
	const docSize = 512 << 10
	jobs := make([]corpus.Job, corpusDocs)
	var total int64
	for i := range jobs {
		doc := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: docSize, Seed: uint64(i + 1)})
		total += int64(len(doc))
		jobs[i] = corpus.FromBytes("doc"+strconv.Itoa(i), doc)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run("workers_"+strconv.Itoa(workers), func(b *testing.B) {
			runner := corpus.Runner{Engine: testutil.CorpusEngine{Prefilter: engine}, Workers: workers}
			b.SetBytes(total)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, agg := runner.Run(context.Background(), jobs)
				if agg.Failed != 0 {
					for _, res := range results {
						if res.Err != nil {
							b.Fatal(res.Err)
						}
					}
				}
			}
		})
	}
}

// BenchmarkIntraDocParallel measures intra-document parallelism: ONE
// document split into segments, scanned by N workers sharing the compiled
// plan, and replayed back in order (internal/pipeline). workers_1 is the
// serial engine baseline. On multicore hardware the scan fans out and the
// pipeline should exceed 1.5x at 4 workers (MEDLINE-style vocabularies win
// even earlier because the anchored scan out-shifts Commentz-Walter); on a
// single-CPU CI container the curve is expected to stay flat at best —
// the benchmark then only guards the harness and the byte-identity.
func BenchmarkIntraDocParallel(b *testing.B) {
	benchSetup(b)
	workloads := []struct {
		name    string
		queryID string
		schema  *dtd.DTD
		doc     []byte
	}{
		{"xmark_xm13", "XM13", benchXMarkDTD, benchXMarkDoc},
		{"medline_m2", "M2", benchMedlineDTD, benchMedlineDoc},
	}
	for _, wl := range workloads {
		q, _ := xmlgen.QueryByID(wl.queryID)
		plan := core.NewPlan(compileFor(b, wl.schema, q.Paths, compile.Options{}), core.Options{})
		projector := pipeline.New([]*core.Plan{plan})
		serial := fig4.New(plan, fig4.Options{})
		want, _, err := serial.ProjectBytes(context.Background(), wl.doc)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			workers := workers
			b.Run(wl.name+"/workers_"+strconv.Itoa(workers), func(b *testing.B) {
				b.SetBytes(int64(len(wl.doc)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var out bytes.Buffer
					out.Grow(len(want))
					_, err := projector.ProjectBuffered(context.Background(), []io.Writer{&out}, wl.doc, pipeline.Options{Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					if out.Len() != len(want) {
						b.Fatalf("output size %d, want %d", out.Len(), len(want))
					}
				}
			})
		}
	}
}

// BenchmarkIntraDocStreaming is the io.Reader variant of the intra-document
// pipeline: segments are read and copied from a stream instead of aliasing
// an in-memory document, which adds the reader's copy to the pipeline.
func BenchmarkIntraDocStreaming(b *testing.B) {
	benchSetup(b)
	q, _ := xmlgen.QueryByID("XM13")
	plan := core.NewPlan(compileFor(b, benchXMarkDTD, q.Paths, compile.Options{}), core.Options{})
	projector := pipeline.New([]*core.Plan{plan})
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run("workers_"+strconv.Itoa(workers), func(b *testing.B) {
			b.SetBytes(int64(len(benchXMarkDoc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := projector.Project(context.Background(), nil, newSliceReader(benchXMarkDoc), pipeline.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCorpusPerWorkerEngines is the NewEngine variant: every worker
// owns a private Fig. 4 engine (its own buffer pool and matcher tables),
// while all engines share one compiled plan — one copy of the automaton.
// Every Run builds its workers' matcher tables, about 36 µs per engine for
// XM13 on a 2-CPU Xeon, against a 16-document batch of 512 KiB each.
func BenchmarkCorpusPerWorkerEngines(b *testing.B) {
	benchSetup(b)
	q, _ := xmlgen.QueryByID("XM13")
	table := compileFor(b, benchXMarkDTD, q.Paths, compile.Options{})
	plan := core.NewPlan(table, core.Options{})

	const corpusDocs = 16
	const docSize = 512 << 10
	jobs := make([]corpus.Job, corpusDocs)
	var total int64
	for i := range jobs {
		doc := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: docSize, Seed: uint64(i + 1)})
		total += int64(len(doc))
		jobs[i] = corpus.FromBytes("doc"+strconv.Itoa(i), doc)
	}

	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run("workers_"+strconv.Itoa(workers), func(b *testing.B) {
			runner := corpus.Runner{
				NewEngine: func() corpus.Engine { return testutil.CorpusEngine{Prefilter: fig4.New(plan, fig4.Options{})} },
				Workers:   workers,
			}
			b.SetBytes(total)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, agg := runner.Run(context.Background(), jobs)
				if agg.Failed != 0 {
					b.Fatal("batch failed")
				}
			}
		})
	}
}

// BenchmarkStreamingProject measures the pooled streaming entry point on a
// single document: steady-state calls should be allocation-light because
// window buffers come from the prefilter's pool and its matcher tables are
// built once by fig4.New.
func BenchmarkStreamingProject(b *testing.B) {
	benchSetup(b)
	q, _ := xmlgen.QueryByID("XM13")
	table := compileFor(b, benchXMarkDTD, q.Paths, compile.Options{})
	pf := newFig4(table, core.Options{}, fig4.Options{})
	b.SetBytes(int64(len(benchXMarkDoc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pf.Project(context.Background(), io.Discard, newSliceReader(benchXMarkDoc)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdStart measures the static/runtime phase split around the
// Plan layer. CompilePlusFirstProject builds a fresh prefilter per iteration
// and immediately projects once: since every tag string is precompiled into
// the plan and fig4.New builds every matcher table and vocabulary order, the
// first projection pays no lazy-build cost — its allocations and time match
// the SteadyProject baseline plus the one-time construction (PlanOnly
// reports the plan's share).
func BenchmarkColdStart(b *testing.B) {
	benchSetup(b)
	q, _ := xmlgen.QueryByID("XM13")
	table := compileFor(b, benchXMarkDTD, q.Paths, compile.Options{})
	doc := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: 256 << 10, Seed: 2})

	b.Run("PlanOnly", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.NewPlan(table, core.Options{})
		}
	})
	b.Run("CompilePlusFirstProject", func(b *testing.B) {
		set := paths.MustParseSet(q.Paths)
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			freshTable, err := compile.Compile(benchXMarkDTD, set, compile.Options{})
			if err != nil {
				b.Fatal(err)
			}
			pf := newFig4(freshTable, core.Options{}, fig4.Options{})
			if _, _, err := pf.ProjectBytes(context.Background(), doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SteadyProject", func(b *testing.B) {
		pf := newFig4(table, core.Options{}, fig4.Options{})
		if _, _, err := pf.ProjectBytes(context.Background(), doc); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := pf.ProjectBytes(context.Background(), doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSharedPlanEngines demonstrates the shared-plan memory contract: K
// Fig. 4 engines built over one plan execute one copy of its automaton and
// tag strings, and each builds its matcher tables before its first run, so
// per-run allocations stay buffer-only and do not grow with K or with the
// table size (compare allocs/op across the engine counts).
func BenchmarkSharedPlanEngines(b *testing.B) {
	benchSetup(b)
	q, _ := xmlgen.QueryByID("XM13")
	table := compileFor(b, benchXMarkDTD, q.Paths, compile.Options{})
	plan := core.NewPlan(table, core.Options{})
	doc := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: 256 << 10, Seed: 2})

	for _, engines := range []int{1, 4, 8} {
		engines := engines
		b.Run("engines_"+strconv.Itoa(engines), func(b *testing.B) {
			pfs := make([]*fig4.Prefilter, engines)
			for i := range pfs {
				pfs[i] = fig4.New(plan, fig4.Options{})
				// Warm each engine's buffer pool once.
				if _, _, err := pfs[i].ProjectBytes(context.Background(), doc); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pfs[i%engines].Project(context.Background(), io.Discard, newSliceReader(doc)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultiQuery measures the multi-query shared projection against K
// independent passes over the same document (the acceptance bar: one shared
// scan over 8 XMark queries beats 8 independent passes by >= 2x on a single
// core — the win is algorithmic, one document scan instead of K, so it does
// not need parallel hardware). Both variants SetBytes the document once per
// query served, so the MB/s columns compare directly; every per-query output
// is spot-checked for byte-identity before timing starts.
func BenchmarkMultiQuery(b *testing.B) {
	benchSetup(b)
	queries := xmlgen.XMarkQueries()
	for _, k := range []int{2, 4, 8} {
		specs := make([]string, k)
		plans := make([]*core.Plan, k)
		engines := make([]*fig4.Prefilter, k)
		for i := 0; i < k; i++ {
			specs[i] = queries[i].Paths
			plans[i] = core.NewPlan(compileFor(b, benchXMarkDTD, queries[i].Paths, compile.Options{}), core.Options{})
			engines[i] = fig4.New(plans[i], fig4.Options{})
		}
		m := pipeline.New(plans)

		// Byte-identity before timing: the benchmark must not race ahead of
		// a correctness regression.
		want := make([][]byte, k)
		for i, e := range engines {
			out, _, err := e.ProjectBytes(context.Background(), benchXMarkDoc)
			if err != nil {
				b.Fatal(err)
			}
			want[i] = out
		}
		bufs := make([]bytes.Buffer, k)
		dsts := make([]io.Writer, k)
		for i := range bufs {
			dsts[i] = &bufs[i]
		}
		if _, err := m.Project(context.Background(), dsts, newSliceReader(benchXMarkDoc), pipeline.Options{}); err != nil {
			b.Fatal(err)
		}
		for i := range bufs {
			if !bytes.Equal(bufs[i].Bytes(), want[i]) {
				b.Fatalf("query %d: shared output %d bytes, independent %d bytes", i, bufs[i].Len(), len(want[i]))
			}
		}

		b.Run("independent_"+itoa(k), func(b *testing.B) {
			b.SetBytes(int64(len(benchXMarkDoc)) * int64(k))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, e := range engines {
					if _, err := e.Project(context.Background(), io.Discard, newSliceReader(benchXMarkDoc)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run("shared_"+itoa(k), func(b *testing.B) {
			b.SetBytes(int64(len(benchXMarkDoc)) * int64(k))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Project(context.Background(), nil, newSliceReader(benchXMarkDoc), pipeline.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultiQueryParallel measures both axes of the unified pipeline at
// once: K merged queries replaying one candidate stream produced by W
// segment-scan workers. w_1 is the serial shared scan (the old multiquery
// shape); higher W fans the same scan out on multicore hardware.
func BenchmarkMultiQueryParallel(b *testing.B) {
	benchSetup(b)
	queries := xmlgen.XMarkQueries()
	const k = 4
	plans := make([]*core.Plan, k)
	for i := 0; i < k; i++ {
		plans[i] = core.NewPlan(compileFor(b, benchXMarkDTD, queries[i].Paths, compile.Options{}), core.Options{})
	}
	m := pipeline.New(plans)
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run("k4_w"+itoa(workers), func(b *testing.B) {
			b.SetBytes(int64(len(benchXMarkDoc)) * int64(k))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Project(context.Background(), nil, newSliceReader(benchXMarkDoc), pipeline.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile measures the static analysis itself (the paper reports
// 0.03-0.2s for DTD parsing, path parsing and table construction).
func BenchmarkCompile(b *testing.B) {
	benchSetup(b)
	for _, id := range []string{"XM1", "XM10", "M3"} {
		q, _ := xmlgen.QueryByID(id)
		schema := benchXMarkDTD
		if id == "M3" {
			schema = benchMedlineDTD
		}
		set := paths.MustParseSet(q.Paths)
		b.Run(id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compile.Compile(schema, set, compile.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// newSliceReader returns a reader over a byte slice without the bytes
// package's extra indirection (keeps the pipelined benchmark allocation-
// free on the producer side).
func newSliceReader(b []byte) io.Reader { return &sliceReader{data: b} }

type sliceReader struct {
	data []byte
	off  int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}
