package index_test

import (
	"bytes"
	"errors"
	"testing"

	"smp/internal/core"
	"smp/internal/index"
	"smp/internal/testutil"
)

// FuzzIndexDecode hardens the sidecar decoder: whatever bytes arrive —
// truncated, bit-flipped, version-skewed, adversarial — Decode must either
// reject them with ErrCorrupt (the caller then falls back to scanning) or
// produce an index whose canonical re-encoding round-trips. It must never
// panic: a hostile sidecar on disk is a fallback, not a crash.
func FuzzIndexDecode(f *testing.F) {
	doc := testutil.BuildFig1Doc(2 << 10)
	plans := testutil.MakePlans(f, testutil.Fig1DTD, []string{"/*, //item/name#"}, core.Options{})
	valid, err := index.Build(doc, core.NewScanPlanUnion(plans)).Encode()
	if err != nil {
		f.Fatalf("Encode: %v", err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("SMPX"))
	skewed := append([]byte(nil), valid...)
	skewed[4] = 2 // future version
	f.Add(skewed)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := index.Decode(data)
		if err != nil {
			if !errors.Is(err, index.ErrCorrupt) {
				t.Fatalf("Decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		// Accepted input: the decoded stream must satisfy the replay
		// invariants and re-encode canonically.
		prev := int64(-1)
		for i, c := range ix.Candidates() {
			if !c.Complete {
				t.Fatalf("candidate %d incomplete", i)
			}
			if c.Pos <= prev {
				t.Fatalf("candidate %d: Pos %d not increasing (prev %d)", i, c.Pos, prev)
			}
			if c.Pos+int64(c.KwLen) > ix.DocLen() {
				t.Fatalf("candidate %d: keyword exceeds document", i)
			}
			if c.ErrKind == core.NoTagErr && (c.TagEnd < c.Pos+int64(c.KwLen) || c.TagEnd >= ix.DocLen()) {
				t.Fatalf("candidate %d: tag end %d out of range", i, c.TagEnd)
			}
			prev = c.Pos
		}
		enc, err := ix.Encode()
		if err != nil {
			t.Fatalf("re-Encode of accepted sidecar: %v", err)
		}
		ix2, err := index.Decode(enc)
		if err != nil {
			t.Fatalf("Decode of canonical re-encoding: %v", err)
		}
		enc2, err := ix2.Encode()
		if err != nil {
			t.Fatalf("second re-Encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("canonical re-encoding is not a fixed point")
		}
	})
}
