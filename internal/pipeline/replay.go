package pipeline

import (
	"context"
	"io"

	"smp/internal/core"
	"smp/internal/glushkov"
)

// replaySource feeds a persisted candidate stream (internal/index) into the
// driver: segments alias the document at fixed boundaries and each carries
// its slice of the stored candidates — no scanner runs at all. Every stored
// candidate is Complete (sidecars are built from a final scan), so the
// driver reads segment data only for output copies, never to resolve tag
// ends; this is what makes the replay byte-identical to a fresh scan while
// touching only the bytes the projection emits.
type replaySource struct {
	ctx     context.Context
	doc     []byte
	cands   []core.Candidate
	segSize int

	base     int
	candIdx  int
	done     bool
	terminal error
}

func (s *replaySource) next() *mseg {
	if s.done {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		s.done = true
		s.terminal = err
		return nil
	}
	owned := len(s.doc) - s.base
	final := true
	if owned > s.segSize {
		owned, final = s.segSize, false
	}
	seg := &mseg{
		base:  int64(s.base),
		data:  s.doc[s.base : s.base+owned],
		owned: owned,
		final: final,
	}
	first := s.candIdx
	end := int64(s.base + owned)
	for s.candIdx < len(s.cands) && s.cands[s.candIdx].Pos < end {
		s.candIdx++
	}
	seg.cands = s.cands[first:s.candIdx]
	s.base += owned
	if final {
		s.done = true
	}
	return seg
}

func (s *replaySource) err() error { return s.terminal }

// recycle is a no-op: segments alias the caller's document and their
// candidate lists are shared subslices of the stored stream.
func (s *replaySource) recycle(*mseg) {}

func (s *replaySource) close(st *core.Stats) {
	// The replay reads the whole document from memory but runs no scan, so
	// only the byte count is reported; comparisons, shifts and rejections
	// were paid once, at index build time.
	st.BytesRead = int64(len(s.doc))
}

// Replay projects the K queries from a stored candidate stream instead of
// scanning doc: the driver steps each query's Fig. 4 automaton over cands
// exactly as it would over a fresh scan's stream, so the output is
// byte-identical to Project/ProjectBuffered by construction — provided cands
// is the complete verified occurrence stream of a vocabulary that subsumes
// every query (see internal/index: Covers gates this, Bind gates staleness).
//
// cands must be strictly increasing in Pos with every candidate Complete,
// and each candidate's Kw must index keywords, the canonical keyword list
// of the vocabulary the stream was recorded for, and tokens, that list's
// token table (tokens[i] is the token keywords[i] stands for) — the shape
// internal/index.Build records and Decode validates. The ids are remapped
// to the engine's once per replay (no remap when the keyword list's
// fingerprint matches the engine's scan vocabulary); tokens is only read,
// so the caller derives it once per stream, not once per replay. The
// replay is sequential (opts.Workers is ignored: the scan was the parallel
// part, and it already happened); opts.ChunkSize sets the segment
// granularity, which only affects retirement batching, not output. doc may
// be nil when cands is empty — the replay then behaves like an empty
// document, which is how summary-proven "no keyword occurs" documents are
// skipped without touching their bytes (the caller patches Stats.BytesRead
// afterwards).
func (e *Engine) Replay(ctx context.Context, dsts []io.Writer, doc []byte, keywords []string, tokens []glushkov.Token, cands []core.Candidate, opts Options) (Result, error) {
	dsts, chunk, err := e.resolve(dsts, opts)
	if err != nil {
		return Result{}, err
	}
	segSize := chunk
	if segSize < 64 {
		segSize = 64
	}
	src := &replaySource{ctx: ctx, doc: doc, cands: cands, segSize: segSize}
	d := newDriver(e, dsts, src, opts.Trace)
	if core.FingerprintKeywords(keywords) != e.scan.Fingerprint() {
		d.tokens = tokens
		for _, k := range d.queries {
			k.local = k.steps.remap(keywords, e.kwID)
		}
	}
	res, runErr := d.run()
	res.Scan.ZeroCopyInput = true
	return res, runErr
}
