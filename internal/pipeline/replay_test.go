package pipeline_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"smp/internal/core"
	"smp/internal/index"
	"smp/internal/pipeline"
	"smp/internal/testutil"
)

func TestReplayMatchesScan(t *testing.T) {
	doc := testutil.BuildFig1Doc(96 << 10)
	specs := []string{"/*, //australia//description#", "/*, //item/name#"}
	plans := testutil.MakePlans(t, testutil.Fig1DTD, specs, core.Options{})
	eng := pipeline.New(plans)
	ix := testutil.RoundTripIndex(t, eng, doc)

	want := make([][]byte, len(plans))
	for i, p := range plans {
		out, err := testutil.SerialProject(t, p, doc)
		if err != nil {
			t.Fatalf("serial query %d: %v", i, err)
		}
		want[i] = out
	}

	for _, chunk := range []int{0, 64, 333, 8 << 10, 1 << 20} {
		bufs := make([]bytes.Buffer, len(plans))
		dsts := make([]io.Writer, len(plans))
		for i := range dsts {
			dsts[i] = &bufs[i]
		}
		res, err := eng.Replay(context.Background(), dsts, ix.Doc(), ix.Keywords(), ix.Candidates(), pipeline.Options{ChunkSize: chunk})
		if err != nil {
			t.Fatalf("chunk %d: Replay: %v", chunk, err)
		}
		for i := range bufs {
			if !bytes.Equal(bufs[i].Bytes(), want[i]) {
				t.Fatalf("chunk %d query %d: replay output differs from scan", chunk, i)
			}
		}
		if res.Scan.BytesRead != int64(len(doc)) {
			t.Errorf("chunk %d: BytesRead = %d, want %d", chunk, res.Scan.BytesRead, len(doc))
		}
		if !res.Scan.ZeroCopyInput {
			t.Errorf("chunk %d: replay did not report zero-copy input", chunk)
		}
	}
}

func TestReplayEmptyDocument(t *testing.T) {
	plans := testutil.MakePlans(t, testutil.Fig1DTD, []string{"/*, //item/name#"}, core.Options{})
	eng := pipeline.New(plans)

	// An empty stream over a nil document must diagnose exactly like a scan
	// of an empty input: end of input in the initial state.
	wantOut, wantErr := testutil.SerialProject(t, plans[0], nil)
	var buf bytes.Buffer
	_, err := eng.Replay(context.Background(), []io.Writer{&buf}, nil, nil, nil, pipeline.Options{})
	errs := testutil.PerQueryErrors(t, err, 1)
	if (wantErr == nil) != (errs[0] == nil) || (wantErr != nil && wantErr.Error() != errs[0].Error()) {
		t.Fatalf("empty replay err = %v, serial err = %v", errs[0], wantErr)
	}
	if !bytes.Equal(buf.Bytes(), wantOut) {
		t.Fatalf("empty replay wrote %q, serial wrote %q", buf.Bytes(), wantOut)
	}
}

func TestReplayNoMatchingCandidatesEqualsScanDiagnosis(t *testing.T) {
	// A document whose tags never intersect the query vocabulary: replaying
	// the full (foreign) document with its empty matching stream and
	// replaying nothing at all must produce identical output and errors —
	// the equivalence the summary skip relies on.
	doc := []byte(`<r><rec><AbstractText>t</AbstractText></rec></r>`)
	plans := testutil.MakePlans(t, testutil.Fig1DTD, []string{"/*, //item/name#"}, core.Options{})
	eng := pipeline.New(plans)
	ix := index.Build(doc, eng.ScanPlan())
	if len(ix.Candidates()) != 0 {
		t.Fatalf("foreign document produced %d candidates", len(ix.Candidates()))
	}

	run := func(d []byte, cands []core.Candidate) ([]byte, error) {
		var buf bytes.Buffer
		_, err := eng.Replay(context.Background(), []io.Writer{&buf}, d, ix.Keywords(), cands, pipeline.Options{})
		return buf.Bytes(), err
	}
	outFull, errFull := run(doc, ix.Candidates())
	outNil, errNil := run(nil, nil)
	if !bytes.Equal(outFull, outNil) {
		t.Fatalf("outputs differ: %q vs %q", outFull, outNil)
	}
	if (errFull == nil) != (errNil == nil) || (errFull != nil && errFull.Error() != errNil.Error()) {
		t.Fatalf("errors differ: %v vs %v", errFull, errNil)
	}
}

func TestReplayCancelledContext(t *testing.T) {
	doc := testutil.BuildFig1Doc(32 << 10)
	plans := testutil.MakePlans(t, testutil.Fig1DTD, []string{"/*, //item/name#"}, core.Options{})
	eng := pipeline.New(plans)
	ix := testutil.RoundTripIndex(t, eng, doc)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.Replay(ctx, []io.Writer{io.Discard}, ix.Doc(), ix.Keywords(), ix.Candidates(), pipeline.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Replay with cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestCandidateKeywordIDs pins the id contract the replay's step tables
// rely on: in a scanned, a Build and a Decode stream alike, every
// candidate's Kw indexes the producing keyword list at that candidate's own
// keyword.
func TestCandidateKeywordIDs(t *testing.T) {
	doc := testutil.BuildFig1Doc(64 << 10)
	specs := []string{"/*, //australia//description#", "/*, //item/name#", "/*, //asia//item#"}
	eng := pipeline.New(testutil.MakePlans(t, testutil.Fig1DTD, specs, core.Options{}))
	sp := eng.ScanPlan()
	built := index.Build(doc, sp)
	decoded := testutil.RoundTripIndex(t, eng, doc)
	for _, c := range []struct {
		name     string
		keywords []string
		cands    []core.Candidate
	}{
		{"scanned", sp.Keywords(), sp.NewScanner().Scan(nil, doc, 0, len(doc), true)},
		{"built", built.Keywords(), built.Candidates()},
		{"decoded", decoded.Keywords(), decoded.Candidates()},
	} {
		if len(c.cands) == 0 {
			t.Fatalf("%s: no candidates", c.name)
		}
		for i, cand := range c.cands {
			if cand.Kw < 0 || int(cand.Kw) >= len(c.keywords) {
				t.Fatalf("%s: candidate %d: Kw %d outside %d keywords", c.name, i, cand.Kw, len(c.keywords))
			}
			if kw := c.keywords[cand.Kw]; kw != cand.Token.Keyword() {
				t.Fatalf("%s: candidate %d: keywords[%d] = %q, want %q", c.name, i, cand.Kw, kw, cand.Token.Keyword())
			}
		}
	}
}
