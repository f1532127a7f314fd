package core

import (
	"reflect"
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
		// Kw must index the producing plan's canonical keyword list and its
		// token table at the candidate's own keyword.
		kw := string(data[c.Pos-base : c.Pos-base+int64(c.KwLen)])
		if got := sp.Keywords()[c.Kw]; got != kw {
			t.Fatalf("candidate %d at %d: Keywords()[Kw=%d] = %q, want %q", i, c.Pos, c.Kw, got, kw)
		}
		if tok := sp.Tokens()[c.Kw]; tok.Keyword() != kw || tok.Close != c.Close {
			t.Fatalf("candidate %d at %d: Tokens()[Kw=%d] = %v, want the token of %q (Close %v)", i, c.Pos, c.Kw, tok, kw, c.Close)
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
			if got[i] != want[i] {
				t.Fatalf("owned=%d final=%v: candidate %d differs\n%s: %+v\nscalar: %+v\ninput: %q",
					owned, final, i, k.name, got[i], want[i], clip(data))
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

// TestCandidateSize pins the candidate layout: every segment's candidate
// list and every decoded sidecar holds candidates by the thousand, so the
// struct is pinned at 32 bytes on 64-bit platforms, and no field may hold a
// pointer — a pointer-free element type keeps candidate lists out of the
// garbage collector's scan.
func TestCandidateSize(t *testing.T) {
	typ := reflect.TypeOf(Candidate{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); holdsPointer(f.Type) {
			t.Errorf("Candidate.%s (%s) holds a pointer", f.Name, f.Type)
		}
	}
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Candidate{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Candidate{}) = %d, want 32", got)
	}
}

// holdsPointer reports whether a value of type typ contains a pointer the
// garbage collector must trace.
func holdsPointer(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.String, reflect.Interface, reflect.Slice, reflect.Map,
		reflect.Pointer, reflect.UnsafePointer, reflect.Func, reflect.Chan:
		return true
	case reflect.Array:
		return typ.Len() > 0 && holdsPointer(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if holdsPointer(typ.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestHoldsPointer checks the layout walk itself on one type of each kind.
func TestHoldsPointer(t *testing.T) {
	type flat struct {
		a int64
		b [4]uint8
		c bool
	}
	type nested struct {
		f flat
		p [2]*int
	}
	for _, c := range []struct {
		v    any
		want bool
	}{
		{flat{}, false}, {[0]string{}, false}, {nested{}, true}, {"", true},
		{[]byte(nil), true}, {map[int]int(nil), true}, {(*int)(nil), true},
		{(func())(nil), true}, {(chan int)(nil), true}, {[1]error{}, true},
		{struct{ e error }{}, true}, {struct{ p unsafe.Pointer }{}, true},
	} {
		if got := holdsPointer(reflect.TypeOf(c.v)); got != c.want {
			t.Errorf("holdsPointer(%T) = %v, want %v", c.v, got, c.want)
		}
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

// FuzzScanEquivalence differences the kernels on arbitrary inputs under
// four vocabularies: the small test DTDs, the MEDLINE query union (many
// names sharing their first two bytes, such as "<Me…"), and the non-ASCII
// vocabulary with its one-byte names. The seeds cover what the two-byte
// test decides: one-byte names and their terminators, shared two-byte
// prefixes, non-ASCII names, and anchors within three bytes of the data end.
func FuzzScanEquivalence(f *testing.F) {
	plans := []*ScanPlan{
		makeScanPlan(f, fig1DTD, "/*, //australia//description#"),
		makeScanPlan(f, prefixScanDTD, "/*, //AbstractText#", "//Abstract#, //ab"),
		filterTestPlans(f)["medline-union"],
		nonASCIIScanPlan(),
	}
	f.Add([]byte("<site><regions><australia><item><description>x</description></item></australia></regions></site>"), 20, true)
	f.Add([]byte("<Abstract ><AbstractText><ab/></AbstractText>"), 45, false)
	f.Add([]byte("<<<<<<<<<<<<<<<<"), 9, true)
	f.Add([]byte("text<item attr=\"a>b\" unterminated"), 33, false)
	f.Add([]byte(strings.Repeat("x", 13)+"<description"), 25, true)
	f.Add([]byte("<a><a/><a\t></a><ab><a\n</a >"), 30, true)
	f.Add([]byte("<MedlineCitation><MeshHeadingList><MeshHeading></MeshHeading></MeshHeadingList><Me></MedlineCitation>"), 60, false)
	f.Add([]byte("<été a='1'>ñandú</été><中文/><\x80x></\xffv><ét>"), 40, true)
	f.Add([]byte("xx<a"), 4, true)
	f.Add([]byte("xx</a"), 5, true)
	f.Add([]byte("xx<a>"), 5, true)
	f.Add([]byte("</p>"), 1, false)
	f.Fuzz(func(t *testing.T, data []byte, owned int, final bool) {
		if owned < 0 {
			owned = -owned
		}
		if owned > len(data) {
			owned = len(data)
		}
		for _, sp := range plans {
			diffKernels(t, sp, data, 0, owned, final)
		}
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
