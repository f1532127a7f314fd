package core_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/dtd"
	"smp/internal/fig4"
	"smp/internal/paths"
	"smp/internal/projection"
	"smp/internal/xmlgen"
)

// propertySchemas is a pool of structurally diverse non-recursive DTDs used
// by the randomized cross-check: choices, optional content, mixed content,
// required attributes, empty elements, prefix-colliding tagnames and deep
// sequences.
var propertySchemas = map[string]string{
	"choices": `<!DOCTYPE a [
		<!ELEMENT a (b|c)*>
		<!ELEMENT b (#PCDATA)>
		<!ELEMENT c (b,b?)>
	]>`,
	"document": `<!DOCTYPE doc [
		<!ELEMENT doc (head, body+)>
		<!ELEMENT head (title, meta*)>
		<!ELEMENT title (#PCDATA)>
		<!ELEMENT meta EMPTY>
		<!ATTLIST meta name CDATA #REQUIRED>
		<!ELEMENT body (#PCDATA | em | strong)*>
		<!ELEMENT em (#PCDATA)>
		<!ELEMENT strong (#PCDATA)>
	]>`,
	"prefixes": `<!DOCTYPE r [
		<!ELEMENT r (rec*)>
		<!ELEMENT rec (Abstract?, AbstractText, Title?, TitleAssociatedWithName?)>
		<!ELEMENT Abstract (#PCDATA)>
		<!ELEMENT AbstractText (#PCDATA)>
		<!ELEMENT Title (#PCDATA)>
		<!ELEMENT TitleAssociatedWithName (#PCDATA)>
	]>`,
	"nested": `<!DOCTYPE library [
		<!ELEMENT library (section+)>
		<!ELEMENT section (heading, (book | journal)*)>
		<!ATTLIST section floor CDATA #REQUIRED>
		<!ELEMENT heading (#PCDATA)>
		<!ELEMENT book (title, author+, year?)>
		<!ATTLIST book isbn CDATA #REQUIRED>
		<!ELEMENT journal (title, issue*)>
		<!ELEMENT issue (number, year)>
		<!ELEMENT title (#PCDATA)>
		<!ELEMENT author (#PCDATA)>
		<!ELEMENT year (#PCDATA)>
		<!ELEMENT number (#PCDATA)>
	]>`,
}

// candidatePaths derives a pool of plausible projection-path specs from a
// schema: the root-preserving /* plus child and descendant paths (with and
// without the '#' flag) for every element name.
func candidatePaths(d *dtd.DTD) []string {
	names := d.ElementNames()
	var out []string
	for _, n := range names {
		if n == d.Root {
			continue
		}
		out = append(out, "//"+n, "//"+n+"#", "/"+d.Root+"//"+n+"#")
	}
	sort.Strings(out)
	return out
}

// TestRandomizedCrossCheck generates random valid documents for every schema
// in the pool and random projection-path sets over the schema's vocabulary,
// and checks that the skip-based runtime produces the same projection as the
// tokenizing reference projector.
func TestRandomizedCrossCheck(t *testing.T) {
	const (
		seedsPerSchema = 6
		setsPerSeed    = 4
	)
	for name, src := range propertySchemas {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			schema := dtd.MustParse(src)
			pool := candidatePaths(schema)
			rng := newTestRNG(0xC0FFEE ^ uint64(len(name)))
			for seed := uint64(0); seed < seedsPerSchema; seed++ {
				doc, err := xmlgen.FromDTDBytes(schema, xmlgen.FromDTDConfig{Seed: seed, TargetSize: 6 << 10, MaxRepeat: 4})
				if err != nil {
					t.Fatalf("seed %d: generate: %v", seed, err)
				}
				for k := 0; k < setsPerSeed; k++ {
					spec := "/*"
					// Pick one to three random candidate paths.
					n := 1 + int(rng.next()%3)
					for i := 0; i < n; i++ {
						spec += ", " + pool[int(rng.next()%uint64(len(pool)))]
					}
					checkAgainstOracle(t, schema, doc, spec)
				}
			}
		})
	}
}

func checkAgainstOracle(t *testing.T, schema *dtd.DTD, doc []byte, spec string) {
	t.Helper()
	set, err := paths.ParseSet(spec)
	if err != nil {
		t.Fatalf("paths %q: %v", spec, err)
	}
	table, err := compile.Compile(schema, set, compile.Options{})
	if err != nil {
		t.Fatalf("compile %q: %v", spec, err)
	}
	smpOut, _, err := newEngine(table, core.Options{ChunkSize: 256}, fig4.Options{}).ProjectBytes(context.Background(), doc)
	if err != nil {
		t.Fatalf("run %q: %v\ndoc: %s", spec, err, clipString(string(doc), 400))
	}
	oracleOut, _, err := projection.New(set, projection.Options{}).ProjectBytes(doc)
	if err != nil {
		t.Fatalf("oracle %q: %v", spec, err)
	}
	eq, err := projection.Equal(smpOut, oracleOut)
	if err != nil {
		t.Fatalf("compare %q: %v\nsmp    = %s\noracle = %s", spec, err, smpOut, oracleOut)
	}
	if !eq {
		d, _ := projection.Diff(smpOut, oracleOut)
		t.Errorf("divergence for paths %q:\n%s\ndoc    = %s\nsmp    = %s\noracle = %s",
			spec, d, clipString(string(doc), 400), clipString(string(smpOut), 400), clipString(string(oracleOut), 400))
	}
}

// testRNG is a tiny splitmix64 for test-local randomness (kept independent
// of math/rand so failures reproduce across Go versions).
type testRNG struct{ state uint64 }

func newTestRNG(seed uint64) *testRNG { return &testRNG{state: seed + 0x9e3779b97f4a7c15} }

func (r *testRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestReaderFailurePropagates injects a read error mid-document and checks
// that the engine reports it rather than silently truncating the output.
func TestReaderFailurePropagates(t *testing.T) {
	doc := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: 64 << 10, Seed: 2})
	schema := dtd.MustParse(xmlgen.XMarkDTD())
	q, _ := xmlgen.QueryByID("XM13")
	table, err := compile.Compile(schema, paths.MustParseSet(q.Paths), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pf := newEngine(table, core.Options{ChunkSize: 1024}, fig4.Options{})

	readErr := errors.New("disk on fire")
	var out strings.Builder
	_, err = pf.Project(context.Background(), &stringWriter{&out}, &failingReader{data: doc, failAt: len(doc) / 2, err: readErr})
	if err == nil {
		t.Fatal("expected an error from the failing reader")
	}
	// The reader's own error must surface, not a misleading DTD-conformance
	// or end-of-input message derived from the truncation.
	if !errors.Is(err, readErr) {
		t.Errorf("error = %v, want the reader's %v", err, readErr)
	}

	// A failure after the last query-relevant tag must still be reported,
	// never silently pass as a successful (truncated) projection.
	_, err = pf.Project(context.Background(), &stringWriter{&out}, &failingReader{data: doc, failAt: len(doc) - 2, err: readErr})
	if !errors.Is(err, readErr) {
		t.Errorf("late read failure: error = %v, want the reader's %v", err, readErr)
	}
}

// TestTruncatedInputReportsState checks the error message for documents that
// end in the middle of relevant content.
func TestTruncatedInputReportsState(t *testing.T) {
	schema := dtd.MustParse(propertySchemas["choices"])
	table, err := compile.Compile(schema, paths.MustParseSet("/*, /a/b#"), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pf := newEngine(table, core.Options{}, fig4.Options{})
	_, _, err = pf.ProjectBytes(context.Background(), []byte(`<a><b>never closed`))
	if err == nil {
		t.Fatal("expected an error for the truncated document")
	}
	if !strings.Contains(err.Error(), "does not conform") {
		t.Errorf("error %q does not mention DTD conformance", err)
	}
}

// failingReader serves data up to failAt bytes and then returns err.
type failingReader struct {
	data   []byte
	off    int
	failAt int
	err    error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.off >= r.failAt {
		return 0, r.err
	}
	n := copy(p, r.data[r.off:r.failAt])
	r.off += n
	return n, nil
}

// stringWriter adapts strings.Builder to io.Writer.
type stringWriter struct{ b *strings.Builder }

func (w *stringWriter) Write(p []byte) (int, error) { return w.b.Write(p) }

// TestCrossCheckBenchmarkWorkloadsWithFromDTD complements the integration
// test: FromDTD-generated (rather than workload-generator) documents for the
// bundled benchmark DTDs are also projected identically by runtime and
// oracle.
func TestCrossCheckBenchmarkWorkloadsWithFromDTD(t *testing.T) {
	cases := []struct {
		dtdSrc  string
		queries []xmlgen.Query
	}{
		{xmlgen.XMarkDTD(), xmlgen.XMarkQueries()},
		{xmlgen.MedlineDTD(), xmlgen.MedlineQueries()},
	}
	for i, c := range cases {
		schema := dtd.MustParse(c.dtdSrc)
		for seed := uint64(0); seed < 2; seed++ {
			doc, err := xmlgen.FromDTDBytes(schema, xmlgen.FromDTDConfig{Seed: seed, TargetSize: 12 << 10})
			if err != nil {
				t.Fatalf("case %d seed %d: %v", i, seed, err)
			}
			for _, q := range c.queries {
				t.Run(fmt.Sprintf("case%d/seed%d/%s", i, seed, q.ID), func(t *testing.T) {
					checkAgainstOracle(t, schema, doc, q.Paths)
				})
			}
		}
	}
}
