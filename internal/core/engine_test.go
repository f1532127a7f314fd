package core_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/dtd"
	"smp/internal/fig4"
	"smp/internal/paths"
	"smp/internal/projection"
	"smp/internal/testutil"
)

// The DTD of paper Example 2 / Fig. 5.
const example2DTD = `<!DOCTYPE a [
	<!ELEMENT a (b|c)*>
	<!ELEMENT b (#PCDATA)>
	<!ELEMENT c (b,b?)>
]>`

// The document of paper Fig. 2.
const paperFig2Document = `<site><regions><africa><item><location>United States</location><name>T V</name><payment>Creditcard</payment><description>15''LCD-FlatPanel</description><shipping>Within country</shipping><incategory category="3"/></item></africa><asia/><australia><item ><location>Egypt</location><name>PDA</name><payment>Check</payment><description>Palm Zire 71</description><shipping/><incategory category="3"/></item></australia></regions></site>`

// newEngine wraps a compiled table in the paper's Fig. 4 engine over a
// fresh plan.
func newEngine(table *compile.Table, popts core.Options, fopts fig4.Options) *fig4.Prefilter {
	return fig4.New(core.NewPlan(table, popts), fopts)
}

func newPrefilter(t *testing.T, dtdSrc, pathSpec string, popts core.Options, fopts fig4.Options) *fig4.Prefilter {
	t.Helper()
	table, err := compile.Compile(dtd.MustParse(dtdSrc), paths.MustParseSet(pathSpec), compile.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return newEngine(table, popts, fopts)
}

func runPrefilter(t *testing.T, p *fig4.Prefilter, doc string) (string, fig4.Stats) {
	t.Helper()
	out, stats, err := p.ProjectBytes(context.Background(), []byte(doc))
	if err != nil {
		t.Fatalf("ProjectBytes: %v", err)
	}
	return string(out), stats
}

// TestRunPaperExample1 reproduces paper Example 1 end to end: prefiltering
// the Fig. 2 document for //australia//description yields the five-tag
// projection, and only a fraction of the characters is inspected.
func TestRunPaperExample1(t *testing.T) {
	p := newPrefilter(t, testutil.Fig1DTD, "/*, //australia//description#", core.Options{}, fig4.Options{})
	out, stats := runPrefilter(t, p, paperFig2Document)
	want := `<site><australia><description>Palm Zire 71</description></australia></site>`
	if out != want {
		t.Errorf("projection = %q, want %q", out, want)
	}
	if stats.CharComparisons >= int64(len(paperFig2Document)) {
		t.Errorf("CharComparisons = %d, want fewer than the document length %d",
			stats.CharComparisons, len(paperFig2Document))
	}
	if stats.BytesWritten != int64(len(want)) {
		t.Errorf("BytesWritten = %d, want %d", stats.BytesWritten, len(want))
	}
	if stats.TagsMatched == 0 {
		t.Error("TagsMatched = 0")
	}
}

// TestRunPaperExample2 checks the /a/b semantics of paper Example 2: only
// top-level b-children survive, b-children of c are skipped thanks to the
// orientation states.
func TestRunPaperExample2(t *testing.T) {
	p := newPrefilter(t, example2DTD, "/*, /a/b#", core.Options{}, fig4.Options{})
	doc := `<a><b>keep1</b><c><b>drop1</b><b>drop2</b></c><b>keep2</b><c><b>drop3</b></c></a>`
	out, _ := runPrefilter(t, p, doc)
	want := `<a><b>keep1</b><b>keep2</b></a>`
	if out != want {
		t.Errorf("projection = %q, want %q", out, want)
	}
}

// TestRunMatchesReferenceProjector cross-checks the skip-based runtime
// against the tokenizing reference projector on a spread of documents and
// path sets: the two outputs must be canonically identical.
func TestRunMatchesReferenceProjector(t *testing.T) {
	cases := []struct {
		name    string
		dtdSrc  string
		doc     string
		pathSet string
	}{
		{"example1", testutil.Fig1DTD, paperFig2Document, "/*, //australia//description#"},
		{"example1-name", testutil.Fig1DTD, paperFig2Document, "/*, /site/regions/australia/item/name#"},
		{"example1-incategory", testutil.Fig1DTD, paperFig2Document, "/*, //incategory#"},
		{"example1-payment", testutil.Fig1DTD, paperFig2Document, "/*, //payment#"},
		{"example1-item", testutil.Fig1DTD, paperFig2Document, "/*, /site/regions/africa/item#"},
		{"example2-ab", example2DTD, `<a><b>x</b><c><b>y</b></c><b>z</b></a>`, "/*, /a/b#"},
		{"example2-c", example2DTD, `<a><b>x</b><c><b>y</b><b>w</b></c><b>z</b></a>`, "/*, //c#"},
		{"example2-all", example2DTD, `<a><c><b>T</b></c></a>`, "/*, /a/b#, //b#"},
		{"example2-empty", example2DTD, `<a></a>`, "/*, /a/b#"},
		{"example2-bachelor", example2DTD, `<a><b/><c><b/></c></a>`, "/*, /a/b#"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := newPrefilter(t, c.dtdSrc, c.pathSet, core.Options{}, fig4.Options{})
			smpOut, _ := runPrefilter(t, p, c.doc)

			oracle := projection.New(paths.MustParseSet(c.pathSet), projection.Options{})
			oracleOut, _, err := oracle.ProjectBytes([]byte(c.doc))
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			eq, err := projection.Equal([]byte(smpOut), oracleOut)
			if err != nil {
				t.Fatalf("compare: %v\nsmp=%q\noracle=%q", err, smpOut, oracleOut)
			}
			if !eq {
				d, _ := projection.Diff([]byte(smpOut), oracleOut)
				t.Errorf("SMP and reference projector disagree:\nsmp   = %q\noracle= %q\n%s", smpOut, oracleOut, d)
			}
		})
	}
}

// TestRunAllAlgorithmsAgree runs the same prefiltering task with every
// single/multi keyword algorithm combination; all must produce identical
// output (the algorithms only differ in how they skip).
func TestRunAllAlgorithmsAgree(t *testing.T) {
	singles := []fig4.SingleAlgorithm{fig4.SingleBoyerMoore, fig4.SingleHorspool, fig4.SingleNaive}
	multis := []fig4.MultiAlgorithm{fig4.MultiCommentzWalter, fig4.MultiAhoCorasick, fig4.MultiSetHorspool, fig4.MultiNaive}
	var reference string
	for _, s := range singles {
		for _, m := range multis {
			p := newPrefilter(t, testutil.Fig1DTD, "/*, //australia//description#", core.Options{}, fig4.Options{Single: s, Multi: m})
			out, _ := runPrefilter(t, p, paperFig2Document)
			if reference == "" {
				reference = out
			} else if out != reference {
				t.Errorf("algorithms (%d,%d) produced %q, want %q", s, m, out, reference)
			}
		}
	}
}

// TestRunSmallChunkSizes forces many window refills and incremental copy
// flushes; the output must not depend on the chunk size.
func TestRunSmallChunkSizes(t *testing.T) {
	// Build a document with a large copied subtree so copy regions span
	// many chunks.
	var items strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&items, `<item><location>loc%d</location><name>name%d</name><payment>pay</payment><description>%s</description><shipping>s</shipping><incategory category="c%d"/></item>`,
			i, i, strings.Repeat("long text ", 30), i)
	}
	doc := `<site><regions><africa>` + items.String() + `</africa><asia/><australia>` + items.String() + `</australia></regions></site>`

	var reference string
	for _, chunk := range []int{0, 64, 256, 4096, core.DefaultChunkSize} {
		p := newPrefilter(t, testutil.Fig1DTD, "/*, //australia//description#", core.Options{ChunkSize: chunk}, fig4.Options{})
		out, stats := runPrefilter(t, p, doc)
		if reference == "" {
			reference = out
		} else if out != reference {
			t.Fatalf("chunk size %d changed the output", chunk)
		}
		if chunk == 64 && stats.MaxBufferBytes > int64(len(doc)) {
			t.Errorf("chunk 64: window grew to %d bytes (doc %d); copy flushing is not bounding memory",
				stats.MaxBufferBytes, len(doc))
		}
	}
	if !strings.Contains(reference, "<australia>") || strings.Contains(reference, "<africa>") {
		t.Errorf("unexpected projection content: %s", clipString(reference, 200))
	}
}

// TestRunStreamingMemoryBounded: for a document much larger than the chunk,
// the window high-water mark stays near the chunk size when no huge copy
// regions are active.
func TestRunStreamingMemoryBounded(t *testing.T) {
	var items strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&items, `<item><location>l%d</location><name>n%d</name><payment>p</payment><description>d%d</description><shipping>s</shipping><incategory category="c"/></item>`, i, i, i)
	}
	doc := `<site><regions><africa>` + items.String() + `</africa><asia/><australia><item><location>x</location><name>y</name><payment>p</payment><description>target</description><shipping>s</shipping><incategory category="c"/></item></australia></regions></site>`
	p := newPrefilter(t, testutil.Fig1DTD, "/*, //australia//description#", core.Options{ChunkSize: 4096}, fig4.Options{})
	out, stats := runPrefilter(t, p, doc)
	if !strings.Contains(out, "<description>target</description>") {
		t.Errorf("projection missing target: %q", out)
	}
	if stats.MaxBufferBytes > 64*1024 {
		t.Errorf("MaxBufferBytes = %d, want bounded near the 4 KiB chunk", stats.MaxBufferBytes)
	}
	if stats.BytesRead != int64(len(doc)) {
		t.Errorf("BytesRead = %d, want %d", stats.BytesRead, len(doc))
	}
}

// TestRunSkipsMostCharacters: on a document dominated by irrelevant content,
// the fraction of inspected characters must stay well below one (the paper
// reports 10-23% on XMark).
func TestRunSkipsMostCharacters(t *testing.T) {
	var items strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&items, `<item><location>United States of America</location><name>product number %d</name><payment>Creditcard</payment><description>a reasonably long description text %d</description><shipping>Will ship internationally</shipping><incategory category="cat%d"/></item>`, i, i, i)
	}
	doc := `<site><regions><africa>` + items.String() + `</africa><asia>` + items.String() + `</asia><australia><item><location>x</location><name>y</name><payment>p</payment><description>found</description><shipping>s</shipping><incategory category="c"/></item></australia></regions></site>`
	p := newPrefilter(t, testutil.Fig1DTD, "/*, //australia//description#", core.Options{}, fig4.Options{})
	_, stats := runPrefilter(t, p, doc)
	ratio := float64(stats.CharComparisons) / float64(len(doc))
	if ratio > 0.5 {
		t.Errorf("inspected %.1f%% of characters, want well below 50%%", 100*ratio)
	}
	if stats.AvgShift() <= 1 {
		t.Errorf("average shift %.2f, want > 1", stats.AvgShift())
	}
}

func TestRunPrefixTagnameDisambiguation(t *testing.T) {
	// Abstract vs AbstractText (paper Section II, Medline example): scanning
	// for <Abstract must not stop at <AbstractText.
	const d = `<!DOCTYPE r [
		<!ELEMENT r (rec*)>
		<!ELEMENT rec (AbstractText, Abstract)>
		<!ELEMENT AbstractText (#PCDATA)>
		<!ELEMENT Abstract (#PCDATA)>
	]>`
	doc := `<r><rec><AbstractText>ignore this</AbstractText><Abstract>keep this</Abstract></rec></r>`
	p := newPrefilter(t, d, "/*, //Abstract#", core.Options{}, fig4.Options{})
	out, stats := runPrefilter(t, p, doc)
	want := `<r><Abstract>keep this</Abstract></r>`
	if out != want {
		t.Errorf("projection = %q, want %q", out, want)
	}
	if stats.RejectedMatches == 0 {
		t.Error("expected at least one rejected prefix match")
	}
}

func TestRunTagsWithAttributesAndWhitespace(t *testing.T) {
	doc := `<a><b  attr="v1"   other='v2'  >text</b><c><b attr=">quoted bracket<">inner</b></c></a>`
	p := newPrefilter(t, example2DTD, "/*, /a/b#", core.Options{}, fig4.Options{})
	out, _ := runPrefilter(t, p, doc)
	// The b child of a is copied raw, including its attributes and the '>'
	// hidden inside a quoted attribute value of the skipped inner b.
	want := `<a><b  attr="v1"   other='v2'  >text</b></a>`
	if out != want {
		t.Errorf("projection = %q, want %q", out, want)
	}
}

func TestRunBachelorTagActions(t *testing.T) {
	doc := `<a><b/><c><b/></c><b  x="1"/></a>`
	p := newPrefilter(t, example2DTD, "/*, /a/b#", core.Options{}, fig4.Options{})
	out, _ := runPrefilter(t, p, doc)
	want := `<a><b/><b  x="1"/></a>`
	if out != want {
		t.Errorf("projection = %q, want %q", out, want)
	}
}

func TestRunInvalidDocumentReportsError(t *testing.T) {
	p := newPrefilter(t, example2DTD, "/*, /a/b#", core.Options{}, fig4.Options{})
	// Truncated document: <a> opened, never closed, no relevant content.
	if _, _, err := p.ProjectBytes(context.Background(), []byte(`<a><b>x`)); err == nil {
		t.Error("expected error for truncated document")
	}
	// A document violating the DTD in a way the automaton notices: a d-tag
	// cannot follow in any state, so scanning simply never finds it; but a
	// stray closing tag for an unexpected element leads to a missing
	// transition only if matched. A truncated file inside a copied region:
	if _, _, err := p.ProjectBytes(context.Background(), []byte(`<a><b>unterminated`)); err == nil {
		t.Error("expected error for unterminated copy region")
	}
}

func TestRunStatsConsistency(t *testing.T) {
	p := newPrefilter(t, testutil.Fig1DTD, "/*, //australia//description#", core.Options{}, fig4.Options{})
	out, stats := runPrefilter(t, p, paperFig2Document)
	if stats.BytesWritten != int64(len(out)) {
		t.Errorf("BytesWritten = %d, want %d", stats.BytesWritten, len(out))
	}
	if stats.States != p.Plan().Table().Stats.States {
		t.Errorf("States = %d, want %d", stats.States, p.Plan().Table().Stats.States)
	}
	if stats.MatchersBuilt == 0 || stats.MatchersBuilt > stats.States {
		t.Errorf("MatchersBuilt = %d, want between 1 and %d", stats.MatchersBuilt, stats.States)
	}
	if stats.InitialJumpBytes == 0 {
		t.Error("InitialJumpBytes = 0, want > 0 (J[site] = 25)")
	}
	if stats.CharCompPercent() <= 0 || stats.CharCompPercent() > 100 {
		t.Errorf("CharCompPercent = %.2f", stats.CharCompPercent())
	}
	if stats.OutputRatio() <= 0 || stats.OutputRatio() >= 1 {
		t.Errorf("OutputRatio = %.3f", stats.OutputRatio())
	}
	if s := stats.String(); !strings.Contains(s, "charcomp") {
		t.Errorf("Stats.String() = %q", s)
	}
}

func TestRunWriterErrorPropagates(t *testing.T) {
	p := newPrefilter(t, example2DTD, "/*, /a/b#", core.Options{}, fig4.Options{})
	w := &failingWriter{failAfter: 1}
	_, err := p.Project(context.Background(), w, strings.NewReader(`<a><b>x</b></a>`))
	if err == nil {
		t.Error("expected write error to propagate")
	}
}

type failingWriter struct {
	writes    int
	failAfter int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.failAfter {
		return 0, fmt.Errorf("simulated write failure")
	}
	return len(p), nil
}

func TestRunReusePrefilterAcrossDocuments(t *testing.T) {
	p := newPrefilter(t, example2DTD, "/*, /a/b#", core.Options{}, fig4.Options{})
	docs := []string{
		`<a><b>1</b></a>`,
		`<a><c><b>2</b></c></a>`,
		`<a><b>3</b><b>4</b></a>`,
	}
	wants := []string{
		`<a><b>1</b></a>`,
		`<a></a>`,
		`<a><b>3</b><b>4</b></a>`,
	}
	for i, doc := range docs {
		out, _ := runPrefilter(t, p, doc)
		if out != wants[i] {
			t.Errorf("doc %d: projection = %q, want %q", i, out, wants[i])
		}
	}
}

func TestRunOutputIsWellFormed(t *testing.T) {
	specs := []string{
		"/*, //australia//description#",
		"/*, /site/regions/australia/item/name#",
		"/*, //incategory#",
		"/*, /site/regions/africa/item/location#",
	}
	for _, spec := range specs {
		p := newPrefilter(t, testutil.Fig1DTD, spec, core.Options{}, fig4.Options{})
		out, _ := runPrefilter(t, p, paperFig2Document)
		if _, err := projection.Canonicalize([]byte(out)); err != nil {
			t.Errorf("spec %q: output is not well-formed: %v\n%s", spec, err, out)
		}
	}
}

func TestRunIntoBuffer(t *testing.T) {
	p := newPrefilter(t, example2DTD, "/*, //c#", core.Options{}, fig4.Options{})
	var buf bytes.Buffer
	stats, err := p.Project(context.Background(), &buf, strings.NewReader(`<a><b>x</b><c><b>y</b></c></a>`))
	if err != nil {
		t.Fatal(err)
	}
	want := `<a><c><b>y</b></c></a>`
	if buf.String() != want {
		t.Errorf("output = %q, want %q", buf.String(), want)
	}
	if stats.BytesWritten != int64(len(want)) {
		t.Errorf("BytesWritten = %d", stats.BytesWritten)
	}
}

func clipString(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}
