package pipeline_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/dtd"
	"smp/internal/fig4"
	"smp/internal/paths"
	"smp/internal/pipeline"
	"smp/internal/testutil"
)

func mustPlan(dtdSrc, pathSpec string) *core.Plan {
	table, err := compile.Compile(dtd.MustParse(dtdSrc), paths.MustParseSet(pathSpec), compile.Options{})
	if err != nil {
		panic(err)
	}
	// A tiny chunk size keeps the lookahead small, so even short fuzz
	// inputs take the parallel path.
	return core.NewPlan(table, core.Options{ChunkSize: 48})
}

// fuzzSingle holds one K=1 engine per fixture query.
var fuzzSingle = sync.OnceValue(func() []*pipeline.Engine {
	specs := []struct{ dtdSrc, pathSpec string }{
		{testutil.Fig1DTD, "/*, //australia//description#"},
		{testutil.Fig1DTD, "/*, //item/name#"},
		{testutil.PrefixDTD, "/*, //AbstractText#"},
	}
	var engines []*pipeline.Engine
	for _, s := range specs {
		engines = append(engines, pipeline.New([]*core.Plan{mustPlan(s.dtdSrc, s.pathSpec)}))
	}
	return engines
})

// fuzzMultiPlans compiles the multi-query fixture once: three overlapping
// queries over the Fig. 1 DTD plus three prefix-colliding queries — the
// union vocabulary mixes short, long and prefix-sharing keywords.
var fuzzMultiPlans = sync.OnceValue(func() [][]*core.Plan {
	sets := []struct {
		dtdSrc string
		specs  []string
	}{
		{testutil.Fig1DTD, []string{"/*, //australia//description#", "/*, //item/name#", "/*, //asia//item#"}},
		{testutil.PrefixDTD, []string{"/*, //Abstract#", "/*, //AbstractText#", "/*, //AbstractTextTranslatedVersion#"}},
	}
	var out [][]*core.Plan
	for _, s := range sets {
		var plans []*core.Plan
		for _, spec := range s.specs {
			plans = append(plans, mustPlan(s.dtdSrc, spec))
		}
		out = append(out, plans)
	}
	return out
})

var fuzzMultis = sync.OnceValue(func() []*pipeline.Engine {
	var ms []*pipeline.Engine
	for _, plans := range fuzzMultiPlans() {
		ms = append(ms, pipeline.New(plans))
	}
	return ms
})

// checkAgainstSerial projects doc through eng with opts and requires
// per-query agreement with each plan's standalone serial run: identical
// projection bytes whenever the serial engine succeeds, and failure exactly
// when it fails. This is the executable form of the pipeline's soundness
// argument (see doc.go); run with -race to also exercise the parallel
// source's synchronization.
func checkAgainstSerial(t *testing.T, eng *pipeline.Engine, doc []byte, opts pipeline.Options, label string) {
	t.Helper()
	plans := eng.Plans()
	bufs := make([]bytes.Buffer, len(plans))
	dsts := make([]io.Writer, len(plans))
	for i := range bufs {
		dsts[i] = &bufs[i]
	}
	_, runErr := eng.Project(context.Background(), dsts, bytes.NewReader(doc), opts)
	errs := testutil.PerQueryErrors(t, runErr, len(plans))
	for i, plan := range plans {
		want, _, wantErr := fig4.New(plan, fig4.Options{}).ProjectBytes(context.Background(), doc)
		if (wantErr == nil) != (errs[i] == nil) {
			t.Fatalf("%s query %d: serial err = %v, pipeline err = %v", label, i, wantErr, errs[i])
		}
		if wantErr == nil && !bytes.Equal(want, bufs[i].Bytes()) {
			t.Fatalf("%s query %d: output differs: serial %d bytes, pipeline %d bytes",
				label, i, len(want), bufs[i].Len())
		}
	}
}

// FuzzProjectParallel feeds arbitrary documents through the serial engine
// and the K=1 parallel pipeline and requires agreement across worker and
// segment-size mixes.
func FuzzProjectParallel(f *testing.F) {
	f.Add([]byte(`<site><regions><africa/><asia/><australia><item><location>x</location><name>n</name><payment>p</payment><description>d</description><shipping/><incategory category="1"/></item></australia></regions></site>`), uint8(4), uint16(16))
	f.Add([]byte(`<r><rec><Abstract>a</Abstract><AbstractText>b</AbstractText></rec></r>`), uint8(2), uint16(24))
	f.Add([]byte(`<r><rec><AbstractText a="q>u<o/te">long text `+strings.Repeat("pad ", 64)+`</AbstractText></rec></r>`), uint8(3), uint16(17))
	f.Add([]byte(`<site>`+strings.Repeat(`<regions>`, 40)+`plain`), uint8(5), uint16(32))
	f.Add([]byte(``), uint8(2), uint16(16))
	f.Add(bytes.Repeat([]byte(`< <site <AbstractTex </r <<>`), 30), uint8(7), uint16(19))

	f.Fuzz(func(t *testing.T, doc []byte, workersRaw uint8, segRaw uint16) {
		workers := 2 + int(workersRaw%7) // 2..8
		segSize := 16 + int(segRaw%1024) // 16..1039
		opts := pipeline.Options{Workers: workers, SegmentSize: segSize}
		for i, eng := range fuzzSingle() {
			checkAgainstSerial(t, eng, doc, opts,
				fmt.Sprintf("plan %d workers %d seg %d", i, workers, segSize))
		}
	})
}

// FuzzMultiProject feeds arbitrary documents through K standalone serial
// engines and one shared multi-query pass (serial scan) and requires
// per-query agreement.
func FuzzMultiProject(f *testing.F) {
	f.Add([]byte(`<site><regions><africa/><asia/><australia><item><location>x</location><name>n</name><payment>p</payment><description>d</description><shipping/><incategory category="1"/></item></australia></regions></site>`), uint16(64))
	f.Add([]byte(`<r><rec><Abstract>a</Abstract><AbstractText>b</AbstractText></rec></r>`), uint16(70))
	f.Add([]byte(`<r><rec><AbstractText a="q>u<o/te">long text `+strings.Repeat("pad ", 64)+`</AbstractText></rec></r>`), uint16(91))
	f.Add([]byte(`<site>`+strings.Repeat(`<regions>`, 40)+`plain`), uint16(80))
	f.Add([]byte(``), uint16(64))
	f.Add(bytes.Repeat([]byte(`< <site <AbstractTex </r <<>`), 30), uint16(77))

	f.Fuzz(func(t *testing.T, doc []byte, chunkRaw uint16) {
		chunk := 64 + int(chunkRaw%2048) // 64..2111
		for si, eng := range fuzzMultis() {
			checkAgainstSerial(t, eng, doc, pipeline.Options{ChunkSize: chunk},
				fmt.Sprintf("set %d chunk %d", si, chunk))
		}
	})
}

// FuzzMultiProjectParallel exercises both axes at once: K > 1 merged
// queries replaying a W > 1 parallel scan, with boundary-straddling
// keywords and prefix-colliding vocabularies. Seeds merge the corpora of
// FuzzProjectParallel and FuzzMultiProject.
func FuzzMultiProjectParallel(f *testing.F) {
	f.Add([]byte(`<site><regions><africa/><asia/><australia><item><location>x</location><name>n</name><payment>p</payment><description>d</description><shipping/><incategory category="1"/></item></australia></regions></site>`), uint8(4), uint16(16), uint16(64))
	f.Add([]byte(`<r><rec><Abstract>a</Abstract><AbstractText>b</AbstractText></rec></r>`), uint8(2), uint16(24), uint16(70))
	f.Add([]byte(`<r><rec><AbstractText a="q>u<o/te">long text `+strings.Repeat("pad ", 64)+`</AbstractText></rec></r>`), uint8(3), uint16(17), uint16(91))
	f.Add([]byte(`<site>`+strings.Repeat(`<regions>`, 40)+`plain`), uint8(5), uint16(32), uint16(80))
	f.Add([]byte(``), uint8(2), uint16(16), uint16(64))
	f.Add(bytes.Repeat([]byte(`< <site <AbstractTex </r <<>`), 30), uint8(7), uint16(19), uint16(77))

	f.Fuzz(func(t *testing.T, doc []byte, workersRaw uint8, segRaw uint16, chunkRaw uint16) {
		workers := 2 + int(workersRaw%7) // 2..8
		segSize := 16 + int(segRaw%1024) // 16..1039
		chunk := 48 + int(chunkRaw%512)  // 48..559
		opts := pipeline.Options{Workers: workers, SegmentSize: segSize, ChunkSize: chunk}
		for si, eng := range fuzzMultis() {
			checkAgainstSerial(t, eng, doc, opts,
				fmt.Sprintf("set %d workers %d seg %d chunk %d", si, workers, segSize, chunk))
		}
	})
}
