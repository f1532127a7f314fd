package smp

import (
	"bytes"
	"context"
	"io"
	"os"

	"smp/internal/index"
	"smp/internal/mmapio"
	"smp/internal/pipeline"
)

// Index is a document's persisted candidate index (see internal/index): the
// verified keyword-occurrence stream of one scan, replayable by any later
// query whose vocabulary the index covers. Build one with
// Prefilter.BuildIndex or MultiPrefilter.BuildIndex, persist it with
// Index.WriteFile, load it with ReadIndex, and offer it to a run with
// WithIndex.
type Index = index.Index

// IndexSidecarExt is the file extension of persisted index sidecars.
const IndexSidecarExt = index.SidecarExt

// IndexSidecarPath returns the conventional sidecar path for a document path
// (the document path plus ".smpidx").
func IndexSidecarPath(docPath string) string { return index.SidecarPath(docPath) }

// ReadIndex reads and decodes a sidecar file. The returned index is unbound:
// a run that uses it will verify the document bytes against the recorded
// content hash first (and fall back to scanning on a mismatch). Corrupt
// sidecars — truncated, bit-flipped, version-skewed — fail here, cleanly.
func ReadIndex(path string) (*Index, error) { return index.ReadFile(path) }

// DecodeIndex decodes an in-memory sidecar. See ReadIndex.
func DecodeIndex(data []byte) (*Index, error) { return index.Decode(data) }

// BuildIndex scans doc once with the prefilter's vocabulary and returns its
// candidate index, already bound to doc. The index serves this prefilter and
// any other whose vocabulary is a subset (Covers).
func (p *Prefilter) BuildIndex(doc []byte) *Index {
	return index.Build(doc, p.eng.ScanPlan())
}

// VocabularyFingerprint returns the fingerprint of the prefilter's scan
// vocabulary — the identity under which a matching index is stored.
func (p *Prefilter) VocabularyFingerprint() uint64 {
	return p.eng.ScanPlan().Fingerprint()
}

// IndexCovers reports whether ix can serve this prefilter's runs: every
// keyword of the compiled scan vocabulary is present in ix's stored
// vocabulary. A fresh but uncovered index is skipped, not an error.
func (p *Prefilter) IndexCovers(ix *Index) bool {
	return ix.Covers(p.eng.ScanPlan())
}

// BuildIndex scans doc once with the merged union vocabulary and returns its
// candidate index, already bound to doc: one sidecar then serves all K
// queries, together or standalone (each query's vocabulary is a subset of
// the union).
func (m *MultiPrefilter) BuildIndex(doc []byte) *Index {
	return index.Build(doc, m.multi.ScanPlan())
}

// VocabularyFingerprint returns the fingerprint of the merged scan
// vocabulary.
func (m *MultiPrefilter) VocabularyFingerprint() uint64 {
	return m.multi.ScanPlan().Fingerprint()
}

// IndexCovers reports whether ix can serve this merged run's vocabulary.
func (m *MultiPrefilter) IndexCovers(ix *Index) bool {
	return ix.Covers(m.multi.ScanPlan())
}

// WithIndex offers a persisted candidate index to the run. When the index
// covers the query vocabulary and matches the document bytes, the run
// replays the stored candidates through the Fig. 4 automaton instead of
// scanning — byte-identical output, no keyword search — and counts
// Stats.IndexHits. Otherwise the run falls back to the ordinary scan and
// counts Stats.IndexSkips: a missing or corrupt sidecar never reaches here
// (ReadIndex fails first), a stale one (content-hash mismatch) or one built
// for a different vocabulary is detected and ignored.
//
// A bound index (built this process, or Bind-verified) carries its document
// bytes: the run then reads nothing from src, which may be nil. An unbound
// index makes the run materialize src first (memory-mapping regular files)
// to verify the content hash.
func WithIndex(ix *Index) ProjectOption {
	return func(c *projectConfig) { c.index = ix }
}

// replayOrScan executes one run against an offered index: replay when the
// index covers the engine's vocabulary and matches the document, scan
// otherwise. It is the single seam every WithIndex surface (Project,
// MultiProject, Batch, the tools) routes through.
func replayOrScan(ctx context.Context, eng *pipeline.Engine, dsts []io.Writer, src io.Reader, ix *Index, popts pipeline.Options) (pipeline.Result, error) {
	sp := eng.ScanPlan()
	if !ix.Covers(sp) {
		var res pipeline.Result
		var err error
		if ix.Bound() {
			res, err = eng.ProjectBuffered(ctx, dsts, ix.Doc(), popts)
		} else {
			res, err = eng.Project(ctx, dsts, src, popts)
		}
		res.Scan.IndexSkips = 1
		return res, err
	}
	if ix.Bound() {
		return replayBound(ctx, eng, dsts, ix, popts)
	}

	// The index is unbound: materialize the document to verify its content
	// hash. Regular files are memory-mapped and left looking consumed (the
	// offset advances past the scanned bytes), exactly as the scan path
	// leaves them.
	if f, ok := src.(*os.File); ok {
		if m, mapErr := mmapio.Map(f); mapErr == nil {
			defer m.Close()
			var res pipeline.Result
			var err error
			if ix.Bind(m.Bytes()) == nil {
				res, err = replayBound(ctx, eng, dsts, ix, popts)
			} else {
				res, err = eng.ProjectBuffered(ctx, dsts, m.Bytes(), popts)
				res.Scan.IndexSkips = 1
			}
			f.Seek(m.Offset()+res.Scan.BytesRead, io.SeekStart)
			return res, err
		}
	}
	doc, readErr := io.ReadAll(src)
	if readErr != nil {
		// Stream the prefix through the scan so the output written and the
		// error reported match a plain Project of the same failing reader.
		res, err := eng.Project(ctx, dsts, io.MultiReader(bytes.NewReader(doc), failingReader{readErr}), popts)
		res.Scan.IndexSkips = 1
		return res, err
	}
	if ix.Bind(doc) != nil {
		res, err := eng.ProjectBuffered(ctx, dsts, doc, popts)
		res.Scan.IndexSkips = 1
		return res, err
	}
	return replayBound(ctx, eng, dsts, ix, popts)
}

// replayBound replays a covered, document-verified index. When the
// per-document summary proves that no query keyword occurs at all, the
// replay runs over an empty stream without touching the document bytes — the
// result (output and diagnosis alike) is identical because the driver only
// reads input bytes to copy output for selected candidates, of which there
// are none.
func replayBound(ctx context.Context, eng *pipeline.Engine, dsts []io.Writer, ix *Index, popts pipeline.Options) (pipeline.Result, error) {
	var res pipeline.Result
	var err error
	if !ix.SummaryMayMatch(eng.ScanPlan()) {
		res, err = eng.Replay(ctx, dsts, nil, nil, nil, nil, popts)
		res.Scan.BytesRead = ix.DocLen()
		for i := range res.Query {
			res.Query[i].BytesRead = ix.DocLen()
		}
		res.Scan.IndexSummarySkips = 1
	} else {
		res, err = eng.Replay(ctx, dsts, ix.Doc(), ix.Keywords(), ix.Tokens(), ix.Candidates(), popts)
	}
	res.Scan.IndexHits = 1
	return res, err
}

// failingReader replays a read error after a prefix, so an index fallback
// reports mid-stream failures exactly like a streaming scan.
type failingReader struct{ err error }

func (r failingReader) Read([]byte) (int, error) { return 0, r.err }
