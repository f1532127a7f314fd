package index_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"smp/internal/core"
	"smp/internal/index"
	"smp/internal/testutil"
)

func buildFig1Index(t *testing.T, specs []string, doc []byte) (*index.Index, *core.ScanPlan) {
	t.Helper()
	plans := testutil.MakePlans(t, testutil.Fig1DTD, specs, core.Options{})
	sp := core.NewScanPlanUnion(plans)
	return index.Build(doc, sp), sp
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	doc := testutil.BuildFig1Doc(64 << 10)
	ix, sp := buildFig1Index(t, []string{"/*, //australia//description#", "/*, //item/name#"}, doc)

	enc, err := ix.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := index.Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.Bound() {
		t.Fatal("decoded index is bound before Bind")
	}
	if !reflect.DeepEqual(dec.Keywords(), ix.Keywords()) {
		t.Fatalf("keywords: got %v, want %v", dec.Keywords(), ix.Keywords())
	}
	if dec.Fingerprint() != sp.Fingerprint() {
		t.Fatalf("fingerprint: got %#x, want %#x", dec.Fingerprint(), sp.Fingerprint())
	}
	if dec.DocLen() != int64(len(doc)) {
		t.Fatalf("docLen: got %d, want %d", dec.DocLen(), len(doc))
	}
	got, want := dec.Candidates(), ix.Candidates()
	if len(got) != len(want) {
		t.Fatalf("candidates: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] || !got[i].Complete {
			t.Fatalf("candidate %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if err := dec.Bind(doc); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if !dec.Bound() || !bytes.Equal(dec.Doc(), doc) {
		t.Fatal("Bind did not attach the document")
	}

	// A second encode of the decoded index must be byte-identical: the
	// format has one canonical serialization.
	enc2, err := dec.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("Encode(Decode(x)) differs from x")
	}
}

func TestBindDetectsStaleness(t *testing.T) {
	doc := testutil.BuildFig1Doc(8 << 10)
	ix, _ := buildFig1Index(t, []string{"/*, //item/name#"}, doc)
	enc, err := ix.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := index.Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}

	mutated := append([]byte(nil), doc...)
	mutated[len(mutated)/2] ^= 1
	if err := dec.Bind(mutated); !errors.Is(err, index.ErrStale) {
		t.Fatalf("Bind(mutated) = %v, want ErrStale", err)
	}
	if err := dec.Bind(doc[:len(doc)-1]); !errors.Is(err, index.ErrStale) {
		t.Fatalf("Bind(truncated) = %v, want ErrStale", err)
	}
	if dec.Bound() {
		t.Fatal("failed Bind left the index bound")
	}
	if err := dec.Bind(doc); err != nil {
		t.Fatalf("Bind(original) = %v", err)
	}
}

func TestCoversSubsetAndDisjoint(t *testing.T) {
	doc := testutil.BuildFig1Doc(4 << 10)
	unionSpecs := []string{"/*, //australia//description#", "/*, //item/name#", "/*, //item/payment#"}
	ix, unionSP := buildFig1Index(t, unionSpecs, doc)

	if !ix.Covers(unionSP) {
		t.Fatal("index does not cover its own vocabulary")
	}
	subsetSP := core.NewScanPlanUnion(testutil.MakePlans(t, testutil.Fig1DTD, unionSpecs[:1], core.Options{}))
	if !ix.Covers(subsetSP) {
		t.Fatal("index does not cover a vocabulary subset")
	}
	otherSP := core.NewScanPlanUnion(testutil.MakePlans(t, testutil.Fig1DTD, []string{"/*, //asia//shipping#"}, core.Options{}))
	if ix.Covers(otherSP) {
		t.Fatal("index claims to cover a vocabulary it was not built for")
	}
}

// TestCoversMatchesSetInclusion holds Covers, which merges two keyword
// lists in canonical order, to plain set inclusion over every pair of
// non-empty subsets of four queries with overlapping and disjoint
// vocabularies.
func TestCoversMatchesSetInclusion(t *testing.T) {
	specs := []string{"/*, //australia//description#", "/*, //item/name#", "/*, //asia//item#", "/*, //item/payment#"}
	doc := testutil.BuildFig1Doc(2 << 10)
	var sps []*core.ScanPlan
	for mask := 1; mask < 1<<len(specs); mask++ {
		var sub []string
		for i, spec := range specs {
			if mask&(1<<i) != 0 {
				sub = append(sub, spec)
			}
		}
		sps = append(sps, core.NewScanPlanUnion(testutil.MakePlans(t, testutil.Fig1DTD, sub, core.Options{})))
	}
	for _, built := range sps {
		ix := index.Build(doc, built)
		have := make(map[string]bool)
		for _, kw := range ix.Keywords() {
			have[kw] = true
		}
		for _, sp := range sps {
			want := true
			for _, kw := range sp.Keywords() {
				want = want && have[kw]
			}
			if got := ix.Covers(sp); got != want {
				t.Fatalf("index over %v: Covers(%v) = %v, want %v", ix.Keywords(), sp.Keywords(), got, want)
			}
		}
	}
}

// TestCoverChecksAllocateNothing pins the per-job checks of a batch whose
// union sidecar serves one query: Covers against a subset plan (the merge
// path, not the fingerprint fast path) and SummaryMayMatch, matching and
// not, allocate nothing.
func TestCoverChecksAllocateNothing(t *testing.T) {
	doc := testutil.BuildFig1Doc(4 << 10)
	unionSpecs := []string{"/*, //australia//description#", "/*, //item/name#", "/*, //item/payment#"}
	built, _ := buildFig1Index(t, unionSpecs, doc)
	enc, err := built.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	ix, err := index.Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	subset := core.NewScanPlanUnion(testutil.MakePlans(t, testutil.Fig1DTD, unionSpecs[1:2], core.Options{}))
	foreign := core.NewScanPlanUnion(testutil.MakePlans(t, testutil.PrefixDTD, []string{"/*, //AbstractText#"}, core.Options{}))
	if subset.Fingerprint() == ix.Fingerprint() || !ix.Covers(subset) || !ix.SummaryMayMatch(subset) {
		t.Fatal("the union index must cover and may match the subset plan through the merge path")
	}
	if ix.Covers(foreign) {
		t.Fatal("the union index covers a foreign vocabulary")
	}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Covers(subset)", func() { ix.Covers(subset) }},
		{"Covers(foreign)", func() { ix.Covers(foreign) }},
		{"SummaryMayMatch(subset)", func() { ix.SummaryMayMatch(subset) }},
		{"SummaryMayMatch(foreign)", func() { ix.SummaryMayMatch(foreign) }},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", c.name, n)
		}
	}
}

// TestEncodeGolden pins the sidecar bytes: the SHA-256 of Encode for a
// fixed generated XMark document and the 18-query union vocabulary. The
// document ends in a tag longer than core.MaxTagLength and a tag cut off by
// the end of input, so both error kinds are in the stream. The digest was
// computed before the candidate lost its token and error fields, and must
// not move unless the wire format changes on purpose (with a version bump).
func TestEncodeGolden(t *testing.T) {
	wl := testutil.XMarkWorkload(64 << 10)
	doc := append([]byte(nil), wl.Doc...)
	doc = append(doc, `<item id="`+strings.Repeat("x", core.MaxTagLength)+`">`...)
	doc = append(doc, `<description lang="en`...)
	ix := index.Build(doc, core.NewScanPlanUnion(testutil.MakePlans(t, wl.DTD, wl.Specs, core.Options{})))
	kinds := make(map[core.TagErrKind]int)
	for _, c := range ix.Candidates() {
		kinds[c.ErrKind]++
	}
	if len(ix.Candidates()) != 1414 || kinds[core.TagErrTooLong] != 1 || kinds[core.TagErrEOF] != 1 {
		t.Fatalf("%d candidates, error kinds %v; want 1414 with one of each error kind", len(ix.Candidates()), kinds)
	}
	enc, err := ix.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	const want = "e93eef8010d2cb023ad282ed13d1f540f96909e3a60e68351e9fdcce6a1c8195"
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != want || len(enc) != 5491 {
		t.Fatalf("Encode: %d bytes, SHA-256 %s; want 5491 bytes, %s", len(enc), got, want)
	}
}

func TestSummaryHasNoFalseNegatives(t *testing.T) {
	doc := testutil.BuildFig1Doc(16 << 10)
	ix, sp := buildFig1Index(t, []string{"/*, //australia//description#", "/*, //item/name#"}, doc)
	// Every tag name that actually occurs must be reported as possible.
	for _, name := range []string{"site", "regions", "africa", "asia", "australia",
		"item", "location", "name", "payment", "description", "shipping", "incategory"} {
		if !ix.Summary().MayContain(name) {
			t.Errorf("summary denies %q, which occurs in the document", name)
		}
	}
	if ix.Summary().MayContain("zzz-not-a-tag") {
		t.Log("summary false positive on absent name (allowed, just noting)")
	}
	if !ix.SummaryMayMatch(sp) {
		t.Fatal("SummaryMayMatch denies the vocabulary the index was scanned with")
	}
	// A vocabulary over a different document type cannot occur here.
	foreign := core.NewScanPlanUnion(testutil.MakePlans(t, testutil.PrefixDTD, []string{"/*, //AbstractText#"}, core.Options{}))
	if ix.SummaryMayMatch(foreign) {
		t.Skip("summary reports a (legal) Bloom false positive for the foreign vocabulary")
	}
}

func TestSidecarFiles(t *testing.T) {
	doc := testutil.BuildFig1Doc(4 << 10)
	ix, _ := buildFig1Index(t, []string{"/*, //item/name#"}, doc)

	dir := t.TempDir()
	docPath := filepath.Join(dir, "doc.xml")
	scPath := index.SidecarPath(docPath)
	if scPath != docPath+index.SidecarExt {
		t.Fatalf("SidecarPath = %q", scPath)
	}
	if err := ix.WriteFile(scPath); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	dec, err := index.ReadFile(scPath)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if err := dec.Bind(doc); err != nil {
		t.Fatalf("Bind after ReadFile: %v", err)
	}
	if _, err := index.ReadFile(filepath.Join(dir, "missing.smpidx")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("ReadFile(missing) = %v, want ErrNotExist", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	doc := testutil.BuildFig1Doc(8 << 10)
	ix, _ := buildFig1Index(t, []string{"/*, //item/name#"}, doc)
	enc, err := ix.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	cases := map[string][]byte{
		"empty":       {},
		"short":       enc[:8],
		"truncated":   enc[:len(enc)-5],
		"bad magic":   append([]byte("XPMS"), enc[4:]...),
		"bad version": append(append([]byte{}, enc[:4]...), append([]byte{99}, enc[5:]...)...),
	}
	for i := 8; i < len(enc); i += len(enc) / 17 {
		flipped := append([]byte(nil), enc...)
		flipped[i] ^= 0x10
		cases["bitflip@"+string(rune('a'+i%26))] = flipped
	}
	for name, data := range cases {
		if _, err := index.Decode(data); err == nil {
			t.Errorf("%s: Decode accepted corrupt sidecar", name)
		} else if !errors.Is(err, index.ErrCorrupt) {
			t.Errorf("%s: error %v is not ErrCorrupt", name, err)
		}
	}
}
