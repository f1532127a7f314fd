package smp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"smp/internal/core"
	"smp/internal/testutil"
)

// TestTagErrorsOnEveryPath drives both tag-end errors through every
// production path — Project at W=1 and W=2 with tiny chunks, MultiProject,
// and sidecars built, encoded, decoded and replayed for the exact and for a
// union vocabulary — and requires each to report the Fig. 4 engine's error
// text (and its output where the engine succeeds). The replays rebuild the
// error from the kind stored in the sidecar, so a path that confuses the
// two kinds reports the other error's text.
func TestTagErrorsOnEveryPath(t *testing.T) {
	specs := []string{"/*, //item/name#", "/*, //australia//description#"}
	ctx := context.Background()
	// Each document's first <name> tag — a tag the first query selects —
	// runs into one of the scan's two tag-end errors: no '>' within
	// core.MaxTagLength bytes, or a clean end of input inside the tag. kind
	// is the error kind the scan records for it, want a fragment of the
	// Fig. 4 engine's diagnosis, and chunks the chunk sizes of the streamed
	// runs (tiny against the tag: the megabyte tag crosses a thousand
	// segments at 1 KiB).
	base := string(testutil.BuildFig1Doc(16 << 10))
	i := strings.Index(base, "<name>")
	docs := []struct {
		name   string
		doc    []byte
		kind   core.TagErrKind
		want   string
		chunks []int
	}{
		{"too-long", []byte(base[:i] + `<name a="` + strings.Repeat("x", core.MaxTagLength) + `">` + base[i+len("<name>"):]),
			core.TagErrTooLong, "no '>' within", []int{1 << 10}},
		{"eof-inside", []byte(base[:i] + `<name a="x`), core.TagErrEOF, "end of input inside tag", []int{64, 301}},
	}
	for _, c := range docs {
		t.Run(c.name, func(t *testing.T) {
			pfs := make([]*Prefilter, len(specs))
			want := make([][]byte, len(specs))
			wantErr := make([]error, len(specs))
			for i, spec := range specs {
				pf, err := Compile(testutil.Fig1DTD, spec, Options{})
				if err != nil {
					t.Fatal(err)
				}
				pfs[i] = pf
				want[i], wantErr[i] = testutil.SerialProject(t, pf.plan, c.doc)
			}
			if wantErr[0] == nil || !strings.Contains(wantErr[0].Error(), c.want) {
				t.Fatalf("Fig. 4 engine: query 0 err = %v, want one containing %q", wantErr[0], c.want)
			}
			check := func(label string, q int, out []byte, err error) {
				t.Helper()
				if (err == nil) != (wantErr[q] == nil) || (err != nil && err.Error() != wantErr[q].Error()) {
					t.Fatalf("%s query %d: err = %v, Fig. 4 engine err = %v", label, q, err, wantErr[q])
				}
				if err == nil && !bytes.Equal(out, want[q]) {
					t.Fatalf("%s query %d: output differs from the Fig. 4 engine's", label, q)
				}
			}
			multi, err := CompileMulti(testutil.Fig1DTD, specs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			multiProject := func(label string, opts ...ProjectOption) {
				t.Helper()
				bufs := make([]bytes.Buffer, len(specs))
				dsts := make([]io.Writer, len(specs))
				for i := range dsts {
					dsts[i] = &bufs[i]
				}
				_, err := multi.MultiProject(ctx, dsts, bytes.NewReader(c.doc), opts...)
				var merr *MultiError
				if !errors.As(err, &merr) {
					t.Fatalf("%s: err = %v, want a *MultiError", label, err)
				}
				for i := range specs {
					check(label, i, bufs[i].Bytes(), merr.Errs[i])
				}
			}

			for _, w := range []int{1, 2} {
				for _, chunk := range c.chunks {
					opts := []ProjectOption{WithWorkers(w), WithChunkSize(chunk)}
					label := fmt.Sprintf("w%d chunk %d", w, chunk)
					for i, pf := range pfs {
						var out bytes.Buffer
						_, err := pf.Project(ctx, &out, bytes.NewReader(c.doc), opts...)
						check("Project "+label, i, out.Bytes(), err)
					}
					multiProject("MultiProject "+label, opts...)
				}
			}

			// Sidecars: the exact vocabulary of each query, and the union
			// one, which serves every query through a remapped vocabulary.
			// Those whose vocabulary holds "<name" must store the error.
			roundTrip := func(ix *Index) *Index {
				t.Helper()
				enc, err := ix.Encode()
				if err != nil {
					t.Fatalf("Encode: %v", err)
				}
				dec, err := DecodeIndex(enc)
				if err != nil {
					t.Fatalf("DecodeIndex: %v", err)
				}
				found := false
				for _, cand := range dec.Candidates() {
					found = found || cand.ErrKind == c.kind
				}
				if named := slices.Contains(dec.Keywords(), "<name"); found != named {
					t.Fatalf("decoded sidecar: candidate of error kind %d stored = %v, want %v", c.kind, found, named)
				}
				return dec
			}
			union := roundTrip(multi.BuildIndex(c.doc))
			for i, pf := range pfs {
				for _, side := range []struct {
					name string
					ix   *Index
				}{{"exact", roundTrip(pf.BuildIndex(c.doc))}, {"union", union}} {
					var out bytes.Buffer
					var st Stats
					_, err := pf.Project(ctx, &out, bytes.NewReader(c.doc), WithIndex(side.ix), WithStatsInto(&st))
					if st.IndexHits != 1 {
						t.Fatalf("%s sidecar query %d: IndexHits = %d, want a replay", side.name, i, st.IndexHits)
					}
					check(side.name+" sidecar", i, out.Bytes(), err)
				}
			}
			multiProject("union sidecar MultiProject", WithIndex(union))
		})
	}
}
