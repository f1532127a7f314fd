package index

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"smp/internal/core"
	"smp/internal/glushkov"
)

// ErrStale reports that the document bytes no longer match the content hash
// recorded when the sidecar was built. The caller must fall back to the scan
// path; replaying a stale candidate stream could emit wrong bytes.
var ErrStale = errors.New("index: document does not match the sidecar content hash")

// Index is one document's persisted candidate stream: every verified
// occurrence of a vocabulary's keywords, in scan order, plus the metadata
// needed to decide when the stream may be replayed — the vocabulary it was
// built for, the content hash of the document it was built from, and a
// vocabulary summary for corpus-granularity prefiltering.
//
// An Index is immutable after Build or Decode and safe for concurrent use.
// The one exception is Bind, which attaches (after verifying) the document
// bytes; callers that share an Index across goroutines bind it once, up
// front.
type Index struct {
	// keywords is the vocabulary in canonical order; kwIdx values in the
	// candidate stream refer into it. tokens[i] is keywords[i] decoded via
	// the exact keyword<->token bijection (Token.Keyword).
	keywords []string
	tokens   []glushkov.Token
	// fp is FingerprintKeywords(keywords), the fast-path coverage check.
	fp uint64
	// docLen and docHash identify the document the stream was scanned from.
	docLen  int64
	docHash [32]byte
	// summary answers "may tag name n occur in this document?".
	summary Summary
	// cands is the verified candidate stream, strictly increasing in Pos.
	// Every candidate is Complete (the build scan is final), so replays
	// never re-resolve tag ends from document bytes. Each candidate's Kw
	// indexes keywords: Build copies the scan plan's canonical list in its
	// order, and Decode sets Kw to the stored kwIdx.
	cands []core.Candidate
	// doc is the verified document binding (nil until Bind or Build).
	doc []byte
}

// Build scans doc once with sp's union vocabulary and records every verified
// keyword occurrence. The returned Index is already bound to doc.
func Build(doc []byte, sp *core.ScanPlan) *Index {
	sc := sp.NewScanner()
	cands := sc.Scan(nil, doc, 0, len(doc), true)
	keywords := append([]string(nil), sp.Keywords()...)
	ix := &Index{
		keywords: keywords,
		tokens:   tokensFor(keywords),
		fp:       sp.Fingerprint(),
		docLen:   int64(len(doc)),
		docHash:  sha256.Sum256(doc),
		summary:  buildSummary(doc),
		cands:    cands,
		doc:      doc,
	}
	return ix
}

// tokensFor decodes each keyword back into its tag token. The mapping is the
// inverse of Token.Keyword and total on any slice that passed decode-time
// validation ('<' prefix, optional '/', non-empty name).
func tokensFor(keywords []string) []glushkov.Token {
	toks := make([]glushkov.Token, len(keywords))
	for i, kw := range keywords {
		if len(kw) >= 2 && kw[1] == '/' {
			toks[i] = glushkov.Closing(kw[2:])
		} else {
			toks[i] = glushkov.Open(kw[1:])
		}
	}
	return toks
}

// Bind verifies doc against the recorded content hash and, on success,
// attaches it so replays can copy output regions without re-reading the
// file. It returns ErrStale when the bytes differ from build time.
func (ix *Index) Bind(doc []byte) error {
	if int64(len(doc)) != ix.docLen || sha256.Sum256(doc) != ix.docHash {
		return ErrStale
	}
	ix.doc = doc
	return nil
}

// Bound reports whether the index carries verified document bytes.
func (ix *Index) Bound() bool { return ix.doc != nil }

// Doc returns the bound document bytes (nil if unbound).
func (ix *Index) Doc() []byte { return ix.doc }

// DocLen returns the length of the document the index was built from.
func (ix *Index) DocLen() int64 { return ix.docLen }

// Fingerprint returns the vocabulary fingerprint the index was built for.
func (ix *Index) Fingerprint() uint64 { return ix.fp }

// Keywords returns the index's vocabulary in canonical order. Callers must
// not mutate the returned slice.
func (ix *Index) Keywords() []string { return ix.keywords }

// Candidates returns the stored candidate stream. Callers must not mutate
// the returned slice.
func (ix *Index) Candidates() []core.Candidate { return ix.cands }

// Summary returns the per-document vocabulary summary.
func (ix *Index) Summary() *Summary { return &ix.summary }

// Covers reports whether the index's vocabulary subsumes sp's, i.e. whether
// the stored stream is a sound and complete oracle for every automaton
// behind sp. Equal fingerprints are the fast path (same canonical keyword
// list); otherwise each query keyword is looked up individually, so an index
// built for a union vocabulary serves any subset query.
func (ix *Index) Covers(sp *core.ScanPlan) bool {
	if sp.Fingerprint() == ix.fp {
		return true
	}
	have := make(map[string]bool, len(ix.keywords))
	for _, kw := range ix.keywords {
		have[kw] = true
	}
	for _, kw := range sp.Keywords() {
		if !have[kw] {
			return false
		}
	}
	return true
}

// SummaryMayMatch reports whether any of sp's keywords may occur in the
// document. False is definitive: no query keyword verifies anywhere, so the
// automaton consumes zero tokens and the projection equals a replay over an
// empty candidate stream.
func (ix *Index) SummaryMayMatch(sp *core.ScanPlan) bool {
	for _, tok := range tokensFor(sp.Keywords()) {
		if ix.summary.MayContain(tok.Name) {
			return true
		}
	}
	return false
}

// errKind classifies a candidate's Err for encoding. The two producible
// errors are position-determined (both constructors take the tag's start
// offset, which is the candidate's Pos), so a kind byte round-trips them
// exactly.
const (
	errNone       = 0
	errTagTooLong = 1
	errEOFInside  = 2
)

func errKindOf(c core.Candidate) (int, error) {
	if c.Err == nil {
		return errNone, nil
	}
	msg := c.Err.Error()
	if msg == core.TagTooLongError(c.Pos).Error() {
		return errTagTooLong, nil
	}
	if msg == core.EOFInsideTagError(c.Pos).Error() {
		return errEOFInside, nil
	}
	return 0, fmt.Errorf("index: unencodable candidate error at offset %d: %v", c.Pos, c.Err)
}

func errOfKind(kind int, pos int64) error {
	switch kind {
	case errTagTooLong:
		return core.TagTooLongError(pos)
	case errEOFInside:
		return core.EOFInsideTagError(pos)
	}
	return nil
}
