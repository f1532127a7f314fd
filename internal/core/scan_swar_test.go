package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"smp/internal/compile"
	"smp/internal/dtd"
	"smp/internal/paths"
	"smp/internal/xmlgen"
)

// The simplified XMark DTD of paper Fig. 1 (leaf elements are #PCDATA).
const fig1DTD = `<!DOCTYPE site [
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

// prefixScanDTD has tagnames that are prefixes of each other around the
// 8-byte word boundary ("<Abstract" is 9 bytes, "<AbstractText" 13), so the
// SWAR word compare alone cannot decide them and the >8-byte tail compare
// must run.
const prefixScanDTD = `<!DOCTYPE r [
	<!ELEMENT r (rec*)>
	<!ELEMENT rec (Abstract?, AbstractText, ab?)>
	<!ELEMENT Abstract (#PCDATA)>
	<!ELEMENT AbstractText (#PCDATA)>
	<!ELEMENT ab (#PCDATA)>
]>`

func makeScanPlan(t testing.TB, dtdSrc string, specs ...string) *ScanPlan {
	t.Helper()
	plans := make([]*Plan, len(specs))
	for i, spec := range specs {
		table, err := compile.Compile(dtd.MustParse(dtdSrc), paths.MustParseSet(spec), compile.Options{})
		if err != nil {
			t.Fatalf("compile %q: %v", spec, err)
		}
		plans[i] = NewPlan(table, Options{})
	}
	return NewScanPlanUnion(plans)
}

// scanKernel is one kernel's entry point, for the differential tests.
type scanKernel struct {
	name string
	scan func(s *SegmentScanner, dst []Candidate, data []byte, base int64, owned int, final bool) []Candidate
}

// fastKernels are the kernels diffKernels holds to the scalar reference:
// SWAR everywhere, and the AVX2 kernel where the CPU runs it
// (scan_avx2_amd64_test.go adds it).
var fastKernels = []scanKernel{{"swar", (*SegmentScanner).scanSWAR}}

// diffKernels scans data with the scalar reference and with every fast
// kernel, and fails the test on any difference in the candidate stream or
// the counters (characters inspected, rejected matches). It returns the
// candidates for additional assertions.
func diffKernels(t testing.TB, sp *ScanPlan, data []byte, base int64, owned int, final bool) []Candidate {
	t.Helper()
	scalar := sp.NewScanner()
	want := scalar.scanScalar(nil, data, base, owned, final)
	wi, wr, _ := scalar.Counters()
	for i, c := range want {
		// Kw must index the producing plan's canonical keyword list at the
		// candidate's own keyword.
		if kw := sp.Keywords()[c.Kw]; kw != c.Token.Keyword() {
			t.Fatalf("candidate %d at %d: Keywords()[Kw=%d] = %q, want %q", i, c.Pos, c.Kw, kw, c.Token.Keyword())
		}
	}
	for _, k := range fastKernels {
		fast := sp.NewScanner()
		got := k.scan(fast, nil, data, base, owned, final)
		if len(got) != len(want) {
			t.Fatalf("owned=%d final=%v: %s found %d candidates, scalar %d\ninput: %q\n%s: %+v\nscalar: %+v",
				owned, final, k.name, len(got), len(want), clip(data), k.name, clip(got), clip(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			// Errors are compared by message: the constructors build fresh values.
			if g.Pos != w.Pos || g.KwLen != w.KwLen || g.Token != w.Token || g.Kw != w.Kw ||
				g.TagEnd != w.TagEnd || g.Bachelor != w.Bachelor || g.Complete != w.Complete ||
				fmt.Sprint(g.Err) != fmt.Sprint(w.Err) {
				t.Fatalf("owned=%d final=%v: candidate %d differs\n%s: %+v\nscalar: %+v\ninput: %q",
					owned, final, i, k.name, g, w, clip(data))
			}
		}
		gi, gr, _ := fast.Counters()
		if gi != wi || gr != wr {
			t.Fatalf("owned=%d final=%v: counters differ: %s (inspected %d, rejected %d) vs scalar (%d, %d)\ninput: %q",
				owned, final, k.name, gi, gr, wi, wr, clip(data))
		}
	}
	return want
}

// clip shortens long inputs and candidate lists in failure messages.
func clip[E any, S ~[]E](s S) S {
	if len(s) > 256 {
		return s[:256]
	}
	return s
}

func TestScanSWAREquivalence(t *testing.T) {
	fig1 := makeScanPlan(t, fig1DTD, "/*, //australia//description#")
	prefix := makeScanPlan(t, prefixScanDTD, "/*, //AbstractText#", "//Abstract#, //ab")
	cases := []struct {
		name string
		sp   *ScanPlan
		data string
	}{
		{"empty", fig1, ""},
		{"no anchors", fig1, "plain text without any tags at all"},
		{"smaller than one word", fig1, "<a>"},
		{"lone anchor", fig1, "<"},
		{"word of anchors", fig1, "<<<<<<<<"},
		{"anchor runs", fig1, "<<<<<<<<<<<<<<<<<item><<<<"},
		{"simple document", fig1, "<site><regions><australia><item><description>x</description></item></australia></regions></site>"},
		{"anchors in the final sub-word tail", fig1, strings.Repeat("x", 16) + "<item>"},
		{"keyword straddles the word boundary", fig1, "abcde<item>after the first load word"},
		{"long keyword straddles several words", fig1, "abc<description attr=\"v\">tail</description>"},
		{"keyword at last owned byte", fig1, strings.Repeat(".", 31) + "<item>trailing lookahead bytes"},
		{"truncated keyword at data end", fig1, "text<item"},
		{"terminator missing at data end", fig1, "text<descri"},
		{"tag end past data end", fig1, "pad<item attr=\"unterminated"},
		{"bachelor and quoted attrs", fig1, `<site><incategory category="a>b"/><item x='<'>y</item></site>`},
		{"prefix collision short vs long", prefix, "<r><rec><Abstract>a</Abstract><AbstractText>b</AbstractText><ab>c</ab></rec></r>"},
		{"prefix valid only as longer keyword", prefix, "<AbstractTextual><AbstractText ><Abstracted><Abstract\t>"},
		{"closing prefix collision", prefix, "</AbstractText></Abstract></ab></r>"},
		{"rejected terminator", fig1, "<itemize><item=><item/>"},
		{"max tag straddling", fig1, "<item " + strings.Repeat("a", 40)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := []byte(tc.data)
			for _, final := range []bool{true, false} {
				// Every owned split, including owned < len(data) (segment
				// lookahead) and the full range.
				for owned := 0; owned <= len(data); owned++ {
					diffKernels(t, tc.sp, data, 0, owned, final)
				}
			}
			// Non-zero base offsets must only shift reported positions.
			full := diffKernels(t, tc.sp, data, 1<<32, len(data), true)
			for _, c := range full {
				if c.Pos < 1<<32 {
					t.Fatalf("candidate position %d below base", c.Pos)
				}
			}
		})
	}
}

// TestCandidateSize pins the candidate layout on 64-bit platforms: Kw packs
// beside the two bools, so adding it did not grow the struct that every
// segment's candidate list holds by the thousand.
func TestCandidateSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Candidate{}); got != 72 {
		t.Fatalf("unsafe.Sizeof(Candidate{}) = %d, want 72", got)
	}
}

// TestScanSWARTailAnchor pins the sub-word tail loop: an anchor on the very
// last owned byte, with and without lookahead, must behave exactly like the
// scalar kernel (invalid when the keyword cannot fit before the data end,
// found when the lookahead holds the rest).
func TestScanSWARTailAnchor(t *testing.T) {
	sp := makeScanPlan(t, fig1DTD, "/*, //australia//description#")
	doc := []byte("0123456789abcde<site>xyz")
	anchor := 15

	// owned ends right on the anchor: the keyword lives in the lookahead.
	got := diffKernels(t, sp, doc, 0, anchor+1, false)
	if len(got) != 1 || got[0].Pos != int64(anchor) {
		t.Fatalf("anchor on last owned byte: got %+v, want one candidate at %d", got, anchor)
	}
	// Final data cut inside the keyword: no candidate on either kernel.
	if got := diffKernels(t, sp, doc[:anchor+3], 0, anchor+3, true); len(got) != 0 {
		t.Fatalf("truncated keyword: got %+v, want none", got)
	}
}

func FuzzScanEquivalence(f *testing.F) {
	fig1 := makeScanPlan(f, fig1DTD, "/*, //australia//description#")
	prefix := makeScanPlan(f, prefixScanDTD, "/*, //AbstractText#", "//Abstract#, //ab")
	f.Add([]byte("<site><regions><australia><item><description>x</description></item></australia></regions></site>"), 20, true)
	f.Add([]byte("<Abstract ><AbstractText><ab/></AbstractText>"), 45, false)
	f.Add([]byte("<<<<<<<<<<<<<<<<"), 9, true)
	f.Add([]byte("text<item attr=\"a>b\" unterminated"), 33, false)
	f.Add([]byte(strings.Repeat("x", 13)+"<description"), 25, true)
	f.Fuzz(func(t *testing.T, data []byte, owned int, final bool) {
		if owned < 0 {
			owned = -owned
		}
		if owned > len(data) {
			owned = len(data)
		}
		diffKernels(t, fig1, data, 0, owned, final)
		diffKernels(t, prefix, data, 0, owned, final)
	})
}

// BenchmarkScanKernel measures raw scan-kernel throughput (candidate
// discovery only, no automaton replay) on generated XMark data, one
// sub-benchmark per kernel this CPU runs. smpbench -scan reports the same
// comparison on full-size inputs alongside the memchr bandwidth reference.
func BenchmarkScanKernel(b *testing.B) {
	doc := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: 4 << 20, Seed: 7})
	sp := makeScanPlan(b, xmlgen.XMarkDTD(), "/*, //australia//description#")
	for _, k := range slices.Concat(fastKernels, []scanKernel{{"scalar", (*SegmentScanner).scanScalar}}) {
		if strings.Contains(k.name, "/") {
			continue // a test-only variant of a kernel (avx2/span200)
		}
		b.Run(k.name, func(b *testing.B) {
			s := sp.NewScanner()
			var dst []Candidate
			b.SetBytes(int64(len(doc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = k.scan(s, dst[:0], doc, 0, len(doc), true)
			}
			if len(dst) == 0 {
				b.Fatal("no candidates on XMark data")
			}
		})
	}
}
