package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/dtd"
	"smp/internal/paths"
	"smp/internal/projection"
	"smp/internal/query"
	"smp/internal/sax"
	"smp/internal/stats"
	"smp/internal/xmlgen"
)

// Config scales the experiments.
type Config struct {
	// XMarkSize and MedlineSize are the generated document sizes for the
	// table experiments (defaults: 4 MiB each).
	XMarkSize   int64
	MedlineSize int64
	// SweepSizes are the document sizes of the Fig. 7(a) sweep (defaults:
	// 256 KiB, 1 MiB, 4 MiB, 16 MiB).
	SweepSizes []int64
	// MemoryBudget is the in-memory engine's budget for Fig. 7(a); the
	// default (16 MiB of tree memory) makes the engine fail without
	// prefiltering beyond a few MiB of input (the tree costs roughly five
	// times the raw document size).
	MemoryBudget int64
	// Seed drives the deterministic generators.
	Seed uint64
	// Queries restricts the workload to the given query IDs (all when empty).
	Queries []string
}

func (c Config) withDefaults() Config {
	if c.XMarkSize <= 0 {
		c.XMarkSize = 4 << 20
	}
	if c.MedlineSize <= 0 {
		c.MedlineSize = 4 << 20
	}
	if len(c.SweepSizes) == 0 {
		c.SweepSizes = []int64{256 << 10, 1 << 20, 4 << 20, 16 << 20}
	}
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 16 << 20
	}
	return c
}

func (c Config) wantQuery(id string) bool {
	if len(c.Queries) == 0 {
		return true
	}
	for _, q := range c.Queries {
		if q == id {
			return true
		}
	}
	return false
}

// workload bundles a dataset's schema, generated document and query set.
type workload struct {
	name    string
	schema  *dtd.DTD
	doc     []byte
	queries []xmlgen.Query
}

func xmarkWorkload(cfg Config) workload {
	return workload{
		name:    "XMark",
		schema:  dtd.MustParse(xmlgen.XMarkDTD()),
		doc:     xmlgen.XMarkBytes(xmlgen.Config{TargetSize: cfg.XMarkSize, Seed: cfg.Seed}),
		queries: xmlgen.XMarkQueries(),
	}
}

func medlineWorkload(cfg Config) workload {
	return workload{
		name:    "MEDLINE",
		schema:  dtd.MustParse(xmlgen.MedlineDTD()),
		doc:     xmlgen.MedlineBytes(xmlgen.Config{TargetSize: cfg.MedlineSize, Seed: cfg.Seed}),
		queries: xmlgen.MedlineQueries(),
	}
}

// runResult is the outcome of one query's prefiltering task: the runtime
// counters, the static-analysis time, and the scan time. The paper's Usr+Sys
// column corresponds to Compile+Run; throughput comparisons use Run alone,
// because a compiled prefilter is reused across documents.
type runResult struct {
	Stats   core.Stats
	Compile time.Duration
	Run     time.Duration
}

// Total returns the combined static-analysis and scan time.
func (r runResult) Total() time.Duration { return r.Compile + r.Run }

// runOne compiles and executes one query's prefiltering task.
func runOne(w workload, q xmlgen.Query, copts compile.Options, ropts core.Options) (runResult, error) {
	set, err := paths.ParseSet(q.Paths)
	if err != nil {
		return runResult{}, fmt.Errorf("%s: %w", q.ID, err)
	}
	compileTimer := stats.StartTimer()
	table, err := compile.Compile(w.schema, set, copts)
	if err != nil {
		return runResult{}, fmt.Errorf("%s: %w", q.ID, err)
	}
	compileElapsed := compileTimer.Elapsed()

	pf := core.New(table, ropts)
	runTimer := stats.StartTimer()
	_, st, err := pf.ProjectBytes(context.Background(), w.doc)
	if err != nil {
		return runResult{}, fmt.Errorf("%s: %w", q.ID, err)
	}
	return runResult{Stats: st, Compile: compileElapsed, Run: runTimer.Elapsed()}, nil
}

// TableI reproduces the paper's Table I: SMP performance characteristics for
// the XMark workload.
func TableI(cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	w := xmarkWorkload(cfg)
	return characteristicsTable(cfg, w,
		fmt.Sprintf("Table I — SMP prefiltering on a %s XMark-like document", stats.FormatBytes(int64(len(w.doc)))),
		"paper (5GB XMark): Char Comp. 9.9-22.4%, Ø shift 5.2-10.8, Initial Jumps 0.1-2.6%, Mem ~1.7MB")
}

// TableII reproduces the paper's Table II: SMP on the MEDLINE workload.
func TableII(cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	w := medlineWorkload(cfg)
	return characteristicsTable(cfg, w,
		fmt.Sprintf("Table II — SMP prefiltering on a %s MEDLINE-like document", stats.FormatBytes(int64(len(w.doc)))),
		"paper (656MB MEDLINE): Char Comp. 8.4-14.6%, Ø shift 6.9-13.4, Initial Jumps 0-7.6%, M1 Proj. Size 0MB")
}

func characteristicsTable(cfg Config, w workload, title, paperNote string) (*stats.Table, error) {
	t := stats.NewTable(title,
		"Query", "Proj. Size", "Output %", "Mem", "Compile", "Run", "States (CW+BM)",
		"Ø Shift [char]", "Initial Jumps [%]", "Char Comp. [%]")
	for _, q := range w.queries {
		if !cfg.wantQuery(q.ID) {
			continue
		}
		res, err := runOne(w, q, compile.Options{}, core.Options{})
		if err != nil {
			return nil, err
		}
		st := res.Stats
		t.AddRow(
			q.ID,
			stats.FormatBytes(st.BytesWritten),
			stats.FormatPercent(100*st.OutputRatio()),
			stats.FormatBytes(st.MaxBufferBytes),
			stats.FormatDuration(res.Compile),
			stats.FormatDuration(res.Run),
			fmt.Sprintf("%d (%d + %d)", st.States, st.CWStates, st.BMStates),
			stats.FormatFloat(st.AvgShift()),
			stats.FormatFloat(st.InitialJumpPercent()),
			stats.FormatFloat(st.CharCompPercent()),
		)
	}
	t.AddNote("%s", paperNote)
	return t, nil
}

// tableIIIPasses is the number of alternating passes TableIII times per
// projector; it reports the fastest of each.
const tableIIIPasses = 3

// TableIII reproduces the paper's Table III: SMP against a projector of the
// type-based-projection class (full tokenization of the input), on the
// subset of queries benchmarked in the paper (XM3, XM6, XM7, XM19). Each
// projector's time is the minimum over tableIIIPasses alternating passes.
func TableIII(cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	w := xmarkWorkload(cfg)
	t := stats.NewTable(
		fmt.Sprintf("Table III — tokenizing projection vs. SMP on a %s XMark-like document", stats.FormatBytes(int64(len(w.doc)))),
		"Query", "Tokenizing Time", "Tokenizing Proj.", "SMP Compile", "SMP Run", "SMP Proj.", "SMP Mem", "Run Speedup")
	for _, id := range []string{"XM3", "XM6", "XM7", "XM19"} {
		if !cfg.wantQuery(id) {
			continue
		}
		q, ok := xmlgen.QueryByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown query %s", id)
		}
		set := paths.MustParseSet(q.Paths)

		// Alternating passes, best of each: one pass of a sub-millisecond
		// run can land on a GC pause or a preemption and invert the
		// comparison.
		var baseOut []byte
		var baseElapsed time.Duration
		var res runResult
		for pass := 0; pass < tableIIIPasses; pass++ {
			baseTimer := stats.StartTimer()
			proj := projection.New(set, projection.Options{})
			out, _, err := proj.ProjectBytes(w.doc)
			if err != nil {
				return nil, fmt.Errorf("%s baseline: %w", id, err)
			}
			if d := baseTimer.Elapsed(); pass == 0 || d < baseElapsed {
				baseElapsed = d
			}
			baseOut = out

			r, err := runOne(w, q, compile.Options{}, core.Options{})
			if err != nil {
				return nil, err
			}
			if pass == 0 || r.Run < res.Run {
				res = r
			}
		}
		t.AddRow(
			id,
			stats.FormatDuration(baseElapsed),
			stats.FormatBytes(int64(len(baseOut))),
			stats.FormatDuration(res.Compile),
			stats.FormatDuration(res.Run),
			stats.FormatBytes(res.Stats.BytesWritten),
			stats.FormatBytes(res.Stats.MaxBufferBytes),
			stats.FormatRatio(float64(baseElapsed), float64(res.Run)),
		)
	}
	t.AddNote("%s", "paper (1GB XMark, OCaml TBP vs C++ SMP): Usr+Sys 757-1170s vs 5.4-9.8s (factor 84-145); comparable projection sizes")
	t.AddNote("%s", "the Go baseline here is our own tokenizing projector, so the language gap of the paper does not apply; the shape to check is a large constant-factor CPU advantage for SMP")
	t.AddNote("times are the best of %d alternating passes of each projector", tableIIIPasses)
	return t, nil
}

// Fig7a reproduces the paper's Fig. 7(a): an in-memory query engine with a
// fixed memory budget, run stand-alone and behind SMP prefiltering, over a
// document-size sweep.
func Fig7a(cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	schema := dtd.MustParse(xmlgen.XMarkDTD())
	q, _ := xmlgen.QueryByID("XM13")
	set := paths.MustParseSet(q.Paths)
	table, err := compile.Compile(schema, set, compile.Options{})
	if err != nil {
		return nil, err
	}
	pf := core.New(table, core.Options{})

	t := stats.NewTable(
		fmt.Sprintf("Fig. 7(a) — in-memory engine (budget %s) alone vs. SMP + engine, query XM13",
			stats.FormatBytes(cfg.MemoryBudget)),
		"Doc Size", "Engine alone", "SMP", "SMP + Engine", "Result Matches")
	for _, size := range cfg.SweepSizes {
		doc := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: size, Seed: cfg.Seed})
		engine := &query.DOMEngine{MemoryBudget: cfg.MemoryBudget}

		aloneTimer := stats.StartTimer()
		aloneCell := ""
		if dom, err := engine.LoadBytes(doc); err != nil {
			aloneCell = "FAIL (memory)"
		} else {
			dom.EvaluateWorkload(set)
			aloneCell = stats.FormatDuration(aloneTimer.Elapsed())
		}

		smpTimer := stats.StartTimer()
		projected, _, err := pf.ProjectBytes(context.Background(), doc)
		if err != nil {
			return nil, err
		}
		smpElapsed := smpTimer.Elapsed()

		pipelineTimer := stats.StartTimer()
		matches := 0
		if dom, err := engine.LoadBytes(projected); err != nil {
			t.AddRow(stats.FormatBytes(int64(len(doc))), aloneCell, stats.FormatDuration(smpElapsed), "FAIL (memory)", "-")
			continue
		} else {
			matches = dom.EvaluateWorkload(set).Matches
		}
		pipelineElapsed := smpElapsed + pipelineTimer.Elapsed()

		t.AddRow(
			stats.FormatBytes(int64(len(doc))),
			aloneCell,
			stats.FormatDuration(smpElapsed),
			stats.FormatDuration(pipelineElapsed),
			fmt.Sprintf("%d", matches),
		)
	}
	t.AddNote("%s", "paper: QizX alone fails beyond 200MB (1GB RAM); with SMP prefiltering it scales to 1GB/5GB documents, total time dominated by the prefiltering scan")
	return t, nil
}

// Fig7b reproduces the paper's Fig. 7(b): the streaming engine stand-alone
// vs. pipelined behind SMP on the MEDLINE workload, reporting runtimes and
// throughput.
func Fig7b(cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	w := medlineWorkload(cfg)
	t := stats.NewTable(
		fmt.Sprintf("Fig. 7(b) — streaming engine alone vs. pipelined SMP + engine on a %s MEDLINE-like document",
			stats.FormatBytes(int64(len(w.doc)))),
		"Query", "Engine alone", "Alone MB/s", "SMP alone", "Pipelined", "Pipelined MB/s", "Matches")
	engine := &query.StreamEngine{}
	for _, q := range w.queries {
		if !cfg.wantQuery(q.ID) {
			continue
		}
		set := paths.MustParseSet(q.Paths)
		table, err := compile.Compile(w.schema, set, compile.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.ID, err)
		}
		pf := core.New(table, core.Options{})

		aloneTimer := stats.StartTimer()
		aloneRes, err := engine.EvaluateWorkload(bytesReader(w.doc), set, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.ID, err)
		}
		aloneElapsed := aloneTimer.Elapsed()

		smpTimer := stats.StartTimer()
		if _, _, err := pf.ProjectBytes(context.Background(), w.doc); err != nil {
			return nil, fmt.Errorf("%s: %w", q.ID, err)
		}
		smpElapsed := smpTimer.Elapsed()

		// Pipelined run: the prefilter writes into a pipe that the streaming
		// engine consumes concurrently, as in the paper's "ppl. SPEX" setup.
		pipeTimer := stats.StartTimer()
		pr, pw := io.Pipe()
		prefErr := make(chan error, 1)
		go func() {
			_, err := pf.Project(context.Background(), pw, bytesReader(w.doc))
			pw.CloseWithError(err)
			prefErr <- err
		}()
		pipedRes, err := engine.EvaluateWorkload(pr, set, nil)
		if err != nil {
			return nil, fmt.Errorf("%s pipelined: %w", q.ID, err)
		}
		if err := <-prefErr; err != nil {
			return nil, fmt.Errorf("%s pipelined prefilter: %w", q.ID, err)
		}
		pipedElapsed := pipeTimer.Elapsed()

		if pipedRes.Matches != aloneRes.Matches {
			return nil, fmt.Errorf("%s: pipelined evaluation found %d matches, stand-alone %d",
				q.ID, pipedRes.Matches, aloneRes.Matches)
		}

		t.AddRow(
			q.ID,
			stats.FormatDuration(aloneElapsed),
			stats.FormatFloat(stats.ThroughputMBps(int64(len(w.doc)), aloneElapsed)),
			stats.FormatDuration(smpElapsed),
			stats.FormatDuration(pipedElapsed),
			stats.FormatFloat(stats.ThroughputMBps(int64(len(w.doc)), pipedElapsed)),
			fmt.Sprintf("%d", aloneRes.Matches),
		)
	}
	t.AddNote("%s", "paper: pipelined real time stays close to the prefiltering time; pipelined throughput up to 190 MB/s vs far lower stand-alone SPEX throughput")
	return t, nil
}

// Fig7c reproduces the paper's Fig. 7(c): the throughput of full SAX
// tokenization against the average SMP prefiltering throughput, on both
// datasets.
func Fig7c(cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	t := stats.NewTable("Fig. 7(c) — SAX tokenization vs. SMP prefiltering throughput [MB/s]",
		"Dataset", "SAX parse", "SMP average", "SMP min", "SMP max", "SMP/SAX")
	for _, w := range []workload{xmarkWorkload(cfg), medlineWorkload(cfg)} {
		saxTimer := stats.StartTimer()
		if _, err := sax.ParseBytes(w.doc, sax.HandlerFunc(func(sax.Event) error { return nil }), sax.Options{}); err != nil {
			return nil, fmt.Errorf("%s: sax: %w", w.name, err)
		}
		saxElapsed := saxTimer.Elapsed()
		saxMBps := stats.ThroughputMBps(int64(len(w.doc)), saxElapsed)

		var sum, min, max float64
		count := 0
		for _, q := range w.queries {
			if !cfg.wantQuery(q.ID) {
				continue
			}
			res, err := runOne(w, q, compile.Options{}, core.Options{})
			if err != nil {
				return nil, err
			}
			mbps := stats.ThroughputMBps(int64(len(w.doc)), res.Run)
			sum += mbps
			if count == 0 || mbps < min {
				min = mbps
			}
			if mbps > max {
				max = mbps
			}
			count++
		}
		if count == 0 {
			continue
		}
		avg := sum / float64(count)
		t.AddRow(w.name,
			stats.FormatFloat(saxMBps),
			stats.FormatFloat(avg),
			stats.FormatFloat(min),
			stats.FormatFloat(max),
			stats.FormatRatio(avg, saxMBps))
	}
	t.AddNote("%s", "paper: SMP prefiltering throughput exceeds Xerces SAX tokenization by a factor of 3-9 on both datasets")
	return t, nil
}

// bytesReader returns a fresh reader over a byte slice (avoiding a bytes
// import at every call site).
func bytesReader(b []byte) io.Reader { return &sliceReader{data: b} }

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
