package core

import (
	"bytes"
	"sort"
	"unsafe"

	"smp/internal/glushkov"
)

// This file is the core half of the unified parallel projection pipeline
// (internal/pipeline): a position-exhaustive keyword scan over one segment of
// the input, against the union of all states' frontier vocabularies.
//
// The serial engine searches only for the current state's vocabulary and
// therefore cannot start mid-document — the automaton state at an interior
// offset depends on the whole prefix. The segment scanner side-steps that by
// being speculative: it finds *every* verified keyword occurrence of *any*
// state's vocabulary within its segment. A sequential stitcher then replays
// the runtime automaton over the per-segment candidate lists, which selects
// exactly the occurrences the serial engine would have matched.
//
// Two structural properties of the keyword set make the candidate lists a
// sound and complete oracle for the serial search:
//
//  1. Every keyword starts with '<' and contains no interior '<', so two
//     occurrences at different positions can never overlap, and scanning
//     '<' anchors in order enumerates candidates in strictly increasing
//     position order.
//
//  2. At any one position at most one keyword is *valid*: a shorter keyword
//     needs a tag terminator (whitespace, '>', '/') right after it, exactly
//     where a longer keyword sharing the prefix needs a tagname character.
//     The serial engine's longest-first verification (Abstract vs
//     AbstractText) therefore resolves to the same unique keyword the
//     scanner records.

// Candidate is one verified keyword occurrence found by a segment scan: the
// unique keyword that is valid at Pos, together with the resolved end of its
// tag. Candidates are reported in strictly increasing Pos order and never
// overlap.
//
// A Candidate holds no pointer, so a candidate list is a flat array the
// garbage collector never scans. The tag token the keyword stands for is
// Tokens()[Kw] of the vocabulary that produced the stream, and the error a
// selection would report is rebuilt from ErrKind and Pos (Err).
type Candidate struct {
	// Pos is the absolute input offset of the '<' starting the keyword.
	Pos int64
	// TagEnd is the absolute offset of the tag's closing '>' (valid only
	// when Complete is true and ErrKind is NoTagErr).
	TagEnd int64
	// KwLen is the keyword length in bytes.
	KwLen int32
	// Kw is the keyword's index in the canonical keyword list of the
	// vocabulary that produced the stream: ScanPlan.Keywords() for a scan,
	// the stored keyword list for a persisted index. Replays look the
	// candidate up by this id, and find its token at the same index of the
	// vocabulary's token table.
	Kw int32
	// Close reports a closing keyword ("</x…").
	Close bool
	// Bachelor reports a "/>" tag end (always false for closing tokens,
	// mirroring the serial engine).
	Bachelor bool
	// Complete reports that the tag-end scan finished within the scanned
	// data — either successfully (TagEnd/Bachelor are valid) or definitely
	// (ErrKind is set). When false, the tag straddles the segment's data
	// end and the stitcher must resume the scan in the following segment.
	Complete bool
	// ErrKind names the error the serial engine would report if it selected
	// this candidate (tag longer than MaxTagLength, or end of input inside
	// the tag). It must only be surfaced if the candidate is actually
	// selected.
	ErrKind TagErrKind
}

// TagErrKind names the error, if any, that a candidate's tag-end scan ran
// into. Both errors are determined by the tag's start offset, so the kind
// and the candidate's Pos rebuild them exactly (Candidate.Err).
type TagErrKind uint8

const (
	// NoTagErr: the tag end was found, or the scan is not Complete.
	NoTagErr TagErrKind = iota
	// TagErrTooLong: no '>' within MaxTagLength bytes (TagTooLongError).
	TagErrTooLong
	// TagErrEOF: the input ended inside the tag (EOFInsideTagError).
	TagErrEOF
)

// Err returns the error the serial engine would report if it selected c,
// or nil when c's tag end was found (or is still to be resolved).
func (c *Candidate) Err() error {
	switch c.ErrKind {
	case TagErrTooLong:
		return TagTooLongError(c.Pos)
	case TagErrEOF:
		return EOFInsideTagError(c.Pos)
	}
	return nil
}

// ScanPlan is the immutable scan-side companion of one or more Plans: the
// union of every state's frontier vocabulary across every plan, bucketed for
// anchored verification. Every keyword starts with '<', so the scan does not
// need a general multi-keyword matcher at all: it hops from '<' to '<' and
// verifies the handful of keywords that can start with the anchor's first
// two tagname bytes — which is also what keeps the speculation overhead low
// enough for the parallel mode to win. Like the Plan, a ScanPlan is built
// once and shared read-only by any number of segment scanners.
//
// The candidate stream a ScanPlan produces is a sound and complete oracle
// for ANY runtime automaton whose vocabulary is a subset of the scanned
// union (see the invariants above): this is the seam the unified pipeline
// (internal/pipeline) builds on, for one plan (intra-document parallelism)
// and for K merged plans (multi-query sharing) alike.
type ScanPlan struct {
	plan *Plan
	// bucketOf[c] (opening) and bucketOf[256+c] (closing) is the index in
	// buckets of the bucket of first tagname byte c. buckets[0] is the
	// empty bucket, which admits no byte, shared by every c that starts no
	// keyword. The other buckets' keyword slices tile one flat array in
	// bucket order, a compressed-sparse-row layout: the opening keywords
	// "<c…" grouped by their first tagname byte c, then the closing keywords
	// "</c…" grouped by the byte c after the slash, longest first within
	// each bucket.
	bucketOf [512]uint16
	buckets  []scanBucket
	// nibbles is the AVX2 anchor filter's view of the buckets (see
	// nibbleTables); the portable kernels never read it.
	nibbles nibbleTables
	// keywords is the union vocabulary in canonical order (longest first,
	// ties lexicographic — the bucket insertion order); fp is the FNV-1a
	// fingerprint of that list. Together they identify the vocabulary a
	// persisted candidate index was built for (internal/index).
	keywords []string
	// tokens[i] is the tag token keywords[i] stands for (Candidate.Kw
	// indexes both).
	tokens  []glushkov.Token
	fp      uint64
	count   int
	maxKw   int
	memSize int64
}

// scanBucket is one bucket: the keywords that start with the same tagname
// byte, and the exact set of bytes that may follow that byte in one of
// them — the keyword's next byte, or for a one-byte tagname every tag
// terminator (IsTagTerminator). An anchor whose second tagname byte is not
// in follow starts no keyword, and is not verified.
type scanBucket struct {
	follow [4]uint64
	kws    []scanKeyword
}

// admits reports whether c is in the bucket's follow set.
func (b *scanBucket) admits(c byte) bool { return b.follow[c>>6]&(1<<(c&63)) != 0 }

// add puts c in the bucket's follow set.
func (b *scanBucket) add(c byte) { b.follow[c>>6] |= 1 << (c & 63) }

type scanKeyword struct {
	pattern []byte
	// close reports a closing keyword ("</x…").
	close bool
	// id is the keyword's index in ScanPlan.keywords (Candidate.Kw).
	id int32
	// word and mask hold the first min(len(pattern), 8) pattern bytes as a
	// little-endian word: loading the 8 input bytes at the anchor and testing
	// load&mask == word verifies those bytes in a single branch-free compare
	// (the SWAR kernel's short-keyword verification; see scan_swar.go).
	// Patterns longer than 8 bytes compare their tail with bytes.Equal.
	word, mask uint64
}

// NewScanPlan derives the global-vocabulary scan tables from a compiled
// plan.
func NewScanPlan(p *Plan) *ScanPlan { return NewScanPlanUnion([]*Plan{p}) }

// NewScanPlanUnion derives one set of scan tables from the union of several
// plans' vocabularies. A keyword determines its token ("<x…" is the opening
// token x, "</x…" the closing token x) independently of the plan that
// contributed it, so merging vocabularies never creates a conflict: the
// shared candidate stream reports each occurrence once, and every consumer
// automaton recognizes exactly the candidates whose token its current state
// searches for. This is what lets K queries share a single document scan.
func NewScanPlanUnion(plans []*Plan) *ScanPlan {
	if len(plans) == 0 {
		panic("core: NewScanPlanUnion needs at least one plan")
	}
	tokens := make(map[string]glushkov.Token)
	for _, p := range plans {
		for _, st := range p.table.States {
			for _, kw := range st.Vocabulary {
				tokens[kw.Keyword] = kw.Token
			}
		}
	}
	return newScanPlan(plans[0], tokens)
}

// newScanPlan buckets a vocabulary, given as keyword → token, into scan
// tables; p is the plan ScanPlan.Plan reports.
func newScanPlan(p *Plan, tokens map[string]glushkov.Token) *ScanPlan {
	order := make([]string, 0, len(tokens))
	for kw := range tokens {
		order = append(order, kw)
	}
	// Longest first (ties: lexicographic), so each bucket resolves prefix
	// collisions the same way the serial engine's verifyAt does.
	sort.Slice(order, func(a, b int) bool { return KeywordBefore(order[a], order[b]) })
	sp := &ScanPlan{plan: p, count: len(order), keywords: order, tokens: make([]glushkov.Token, len(order))}
	sp.fp = FingerprintKeywords(order)
	kws := make([]scanKeyword, len(order))
	for i, kw := range order {
		tok := tokens[kw]
		sp.tokens[i] = tok
		sk := scanKeyword{pattern: []byte(kw), close: tok.Close, id: int32(i)}
		for b := 0; b < len(sk.pattern) && b < 8; b++ {
			sk.word |= uint64(sk.pattern[b]) << (8 * b)
			sk.mask |= 0xFF << (8 * b)
		}
		sp.maxKw = max(sp.maxKw, len(kw))
		kws[i] = sk
		sp.memSize += int64(len(kw)+len(tok.Name)) + 48
	}
	// A stable sort by bucket keeps the canonical order within each bucket.
	sort.SliceStable(kws, func(a, b int) bool { return kws[a].bucket() < kws[b].bucket() })
	sp.buckets = []scanBucket{{}}
	for i := range kws {
		kw := &kws[i]
		b := kw.bucket()
		if sp.bucketOf[b] == 0 {
			sp.bucketOf[b] = uint16(len(sp.buckets))
			sp.buckets = append(sp.buckets, scanBucket{kws: kws[i:i]})
		}
		bk := &sp.buckets[len(sp.buckets)-1]
		bk.kws = bk.kws[:len(bk.kws)+1]
		// The byte after the bucket byte: the keyword's next byte, or any
		// terminator after a one-byte tagname.
		next := 2 // "<c" then the next byte
		if kw.close {
			next = 3 // "</c" then the next byte
		}
		if next < len(kw.pattern) {
			bk.add(kw.pattern[next])
		} else {
			for c := range 256 {
				if IsTagTerminator(byte(c), kw.close) {
					bk.add(byte(c))
				}
			}
		}
	}
	sp.nibbles = newNibbleTables(sp)
	sp.memSize += int64(unsafe.Sizeof(sp.bucketOf)) + int64(unsafe.Sizeof(sp.nibbles)) +
		int64(len(sp.buckets))*int64(unsafe.Sizeof(scanBucket{}))
	return sp
}

// bucket returns the keyword's bucket index in bucketOf: its first tagname
// byte, offset by 256 for a closing keyword.
func (kw *scanKeyword) bucket() int {
	if kw.close {
		return 256 + int(kw.pattern[2])
	}
	return int(kw.pattern[1])
}

// nibbleTables are the AVX2 anchor filter's lookup tables, in the style of
// Hyperscan's Teddy with two-byte masks (Wang et al., "Hyperscan", NSDI
// 2019). Each is a 16-entry table repeated for both 128-bit lanes of a YMM
// register, in the order the kernel loads them (the nibble* rows).
//
// Every non-empty bucket, of first tagname byte b, belongs to group b&7: the
// bit lo1 maps b's low nibble to. hi1[b>>4] collects the groups of the
// direction's buckets with high nibble b>>4, so lo1[b&15]&hi1[b>>4] is b's
// group when b may start a keyword. lo2 and hi2 hold, per nibble of the
// second tagname byte, the groups of the buckets whose follow set has a byte
// with that nibble. An anchor passes when its four lookups AND to non-zero.
// The test is a superset of the exact one (scanBucket.admits): it cannot
// tell apart buckets of the same group, nor the nibbles of one byte from
// those of another. So the filter can only let extra anchors through, never
// drop one that has a keyword to verify; Go applies the exact test to every
// survivor.
//
// Grouping by the low three bits spreads the first bytes of a one-case
// vocabulary over all eight groups. Grouping by the high nibble, which makes
// the first-byte test alone exact for ASCII, puts them in two groups (e.g.
// 'A'-'O' and 'P'-'Z'), and the second-byte test then mixes their follow
// sets: on 8 MiB documents it admitted 43.3% of the anchors against 32.0%
// for the MEDLINE query union, 61.9% against 50.5% for the XMark union.
type nibbleTables [7][32]byte

// The rows of nibbleTables; lo1 is shared by both directions.
const (
	nibbleOpenHi1 = iota
	nibbleLo1
	nibbleCloseHi1
	nibbleOpenLo2
	nibbleOpenHi2
	nibbleCloseLo2
	nibbleCloseHi2
)

// newNibbleTables derives the filter's tables from the plan's buckets.
func newNibbleTables(sp *ScanPlan) nibbleTables {
	var t nibbleTables
	set := func(row, nibble int, group byte) {
		t[row][nibble] |= group
		t[row][16+nibble] |= group
	}
	for l := 0; l < 16; l++ {
		set(nibbleLo1, l, 1<<(l&7))
	}
	for b, k := range sp.bucketOf {
		if k == 0 {
			continue // the empty bucket
		}
		hi1, lo2, hi2 := nibbleOpenHi1, nibbleOpenLo2, nibbleOpenHi2
		if b >= 256 {
			hi1, lo2, hi2 = nibbleCloseHi1, nibbleCloseLo2, nibbleCloseHi2
		}
		group := byte(1) << (b & 7)
		set(hi1, b>>4&15, group)
		bk := &sp.buckets[k]
		for c := 0; c < 256; c++ {
			if bk.admits(byte(c)) {
				set(lo2, c&15, group)
				set(hi2, c>>4, group)
			}
		}
	}
	return t
}

// Plan returns the execution plan the scan tables were derived from (the
// first plan, for tables built over a union).
func (sp *ScanPlan) Plan() *Plan { return sp.plan }

// MemSize returns the approximate footprint of the scan tables in bytes:
// what a union scan adds on top of the per-query plans it was derived from.
// Cache implementations that already weigh the underlying plans should count
// only this for a merged entry.
func (sp *ScanPlan) MemSize() int64 { return sp.memSize }

// Keywords returns the union vocabulary in the scan tables' canonical order
// (longest first, ties lexicographic). The slice is shared read-only state of
// the plan — callers must not mutate it.
func (sp *ScanPlan) Keywords() []string { return sp.keywords }

// Tokens returns the tag token of each keyword, in Keywords() order: the
// token of a candidate from this plan's scan is Tokens()[Kw]. The slice is
// shared read-only state of the plan — callers must not mutate it.
func (sp *ScanPlan) Tokens() []glushkov.Token { return sp.tokens }

// Fingerprint returns the FNV-1a hash of the canonical keyword list: the
// identity of the scanned vocabulary. Two ScanPlans with equal fingerprints
// search for exactly the same keyword set, so a candidate stream recorded
// under one replays under the other (internal/index keys its sidecars by
// this value).
func (sp *ScanPlan) Fingerprint() uint64 { return sp.fp }

// KeywordBefore reports whether keyword a precedes b in the canonical
// vocabulary order of Keywords(): longest first, ties lexicographic.
func KeywordBefore(a, b string) bool {
	if len(a) != len(b) {
		return len(a) > len(b)
	}
	return a < b
}

// FingerprintKeywords hashes a keyword list with FNV-1a, separating entries
// with a NUL byte (keywords are tag prefixes and never contain NUL).
func FingerprintKeywords(keywords []string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, kw := range keywords {
		for i := 0; i < len(kw); i++ {
			h = (h ^ uint64(kw[i])) * prime64
		}
		h *= prime64 // the NUL separator (h ^ 0x00 == h)
	}
	return h
}

// MaxKeywordLen returns the length of the longest keyword in the union
// vocabulary. Callers scanning non-final segments must provide at least
// MaxKeywordLen()+1 bytes of lookahead past the owned range so straddling
// keywords and their terminator byte are always in view.
func (sp *ScanPlan) MaxKeywordLen() int { return sp.maxKw }

// KeywordCount returns the size of the union vocabulary.
func (sp *ScanPlan) KeywordCount() int { return sp.count }

// SegmentScanner scans byte segments for candidates against one ScanPlan.
// It is cheap (scratch state only; the tables live in the shared ScanPlan)
// and not safe for concurrent use: give each worker goroutine its own.
type SegmentScanner struct {
	sp *ScanPlan
	// inspected counts the characters examined by verification and
	// tag-end scanning. It does not depend on the kernel: every kernel
	// verifies the same anchors, those whose first two tagname bytes can
	// start a keyword (bucket).
	inspected int64
	// rejected counts raw keyword matches whose terminator check failed
	// (the scan-side analogue of the serial engine's RejectedMatches).
	rejected int64
	// scanned counts the owned bytes of every Scan call.
	scanned int64
	// The counters are written on every verified anchor: the padding keeps
	// the scanners of parallel workers off each other's cache lines.
	_ [32]byte
}

// NewScanner returns a fresh scanner over the plan's union vocabulary.
func (sp *ScanPlan) NewScanner() *SegmentScanner { return &SegmentScanner{sp: sp} }

// Counters returns the instrumentation accumulated across all Scan calls:
// the verification/tag-scan characters examined, the rejected raw matches
// and the owned bytes scanned.
func (s *SegmentScanner) Counters() (inspected, rejected, scanned int64) {
	return s.inspected, s.rejected, s.scanned
}

// Scan appends to dst every candidate whose keyword starts within the owned
// range [base, base+owned) and returns the extended slice. data[0] is the
// byte at absolute input offset base. When final is false — data does not
// extend to the end of the input — the caller must supply at least
// MaxKeywordLen()+1 bytes past owned, so that a keyword starting on the
// last owned byte still fits together with its terminator; tag ends may
// nevertheless run past the data (Candidate.Complete is then false). When
// final is true, running out of data mirrors the serial engine exactly: a
// keyword without its terminator byte is invalid, a tag without '>' is the
// "unexpected end of input inside tag" error.
//
// Scan runs the fastest kernel the CPU supports: on amd64 with AVX2, BMI1
// and POPCNT, the AVX2 anchor filter (scan_avx2_amd64.go) in front of the
// SWAR verifier; everywhere else — other CPUs and architectures, and builds
// with the purego tag — the SWAR multi-anchor kernel (scan_swar.go). The
// environment variable SMP_SCAN_KERNEL=scalar pins the byte-at-a-time
// reference kernel instead. All kernels produce identical candidate streams
// and identical counters — ScanScalar is kept as the differential baseline.
func (s *SegmentScanner) Scan(dst []Candidate, data []byte, base int64, owned int, final bool) []Candidate {
	if owned > len(data) {
		owned = len(data)
	}
	if s.sp.count == 0 || owned <= 0 {
		return dst
	}
	s.scanned += int64(owned)
	if useScalarKernel {
		return s.scanScalar(dst, data, base, owned, final)
	}
	if avx2Kernel {
		return s.scanAVX2(dst, data, base, owned, final)
	}
	return s.scanSWAR(dst, data, base, owned, final)
}

// ScanKernel names the kernel Scan runs in this process: "avx2", "swar" or
// "scalar". The choice is made once, from the CPU and SMP_SCAN_KERNEL.
func ScanKernel() string {
	switch {
	case useScalarKernel:
		return "scalar"
	case avx2Kernel:
		return "avx2"
	}
	return "swar"
}

// ScanScalar is Scan on the byte-at-a-time reference kernel —
// bytes.IndexByte anchor hops and bytes.Equal verification — regardless of
// the kernel selection. It is the differential baseline the SWAR and AVX2
// kernels are fuzzed and benchmarked against (FuzzScanEquivalence,
// smpbench -scan): candidate streams and counters must be identical.
func (s *SegmentScanner) ScanScalar(dst []Candidate, data []byte, base int64, owned int, final bool) []Candidate {
	if owned > len(data) {
		owned = len(data)
	}
	if s.sp.count == 0 || owned <= 0 {
		return dst
	}
	s.scanned += int64(owned)
	return s.scanScalar(dst, data, base, owned, final)
}

// scanScalar is the reference anchor loop: hop from '<' to '<' with the
// vectorized bytes.IndexByte and verify each anchor byte by byte.
func (s *SegmentScanner) scanScalar(dst []Candidate, data []byte, base int64, owned int, final bool) []Candidate {
	i := 0
	for i < owned {
		j := bytes.IndexByte(data[i:owned], '<')
		if j < 0 {
			break
		}
		pos := i + j
		if c, ok := s.verifyScalar(data, base, pos, final); ok {
			dst = append(dst, c)
		}
		// Occurrences never overlap (no keyword has an interior '<'), so
		// the next anchor search can simply resume past this one.
		i = pos + 1
	}
	return dst
}

// verifyScalar finds the unique keyword valid at the '<' anchor pos (longest
// first within its bucket, as the serial engine's verifyAt does) and
// resolves its tag end.
func (s *SegmentScanner) verifyScalar(data []byte, base int64, pos int, final bool) (Candidate, bool) {
	// The keyword plus its terminator byte must be in view: that is at
	// least two bytes after '<', three after "</". At the end of the input
	// this mirrors the serial engine's rejection; before it, the caller's
	// lookahead guarantee keeps every straddling keyword visible.
	if pos+2 >= len(data) || data[pos+1] == '/' && pos+3 >= len(data) {
		return Candidate{}, false
	}
	bucket := s.bucket(data, pos)
	if len(bucket) > 0 {
		s.inspected++
	}
	for _, kw := range bucket {
		end := pos + len(kw.pattern)
		if end >= len(data) {
			continue
		}
		s.inspected += int64(len(kw.pattern)) + 1
		if !bytes.Equal(data[pos+1:end], kw.pattern[1:]) {
			continue
		}
		if !IsTagTerminator(data[end], kw.close) {
			s.rejected++
			continue
		}
		c := Candidate{Pos: base + int64(pos), KwLen: int32(len(kw.pattern)), Kw: kw.id, Close: kw.close}
		s.scanTagEnd(data, base, pos, end, final, &c)
		if c.Close {
			c.Bachelor = false
		}
		return c, true
	}
	return Candidate{}, false
}

// scanTagEnd resolves the tag's closing '>' within the available data,
// mirroring the serial engine's quote handling and length bound.
func (s *SegmentScanner) scanTagEnd(data []byte, base int64, tagStart, from int, final bool, c *Candidate) {
	// inspected advances once per byte examined; it is derived from the
	// loop index at each exit instead of incremented per byte — the
	// read-modify-write on s.inspected would dominate this loop.
	var ts TagScan
	for i := from; i < len(data); i++ {
		done, bachelor := ts.Feed(data[i])
		if done {
			s.inspected += int64(i - from + 1)
			c.TagEnd = base + int64(i)
			c.Bachelor = bachelor
			c.Complete = true
			return
		}
		if i+1-tagStart > MaxTagLength {
			s.inspected += int64(i - from + 1)
			c.Complete = true
			c.ErrKind = TagErrTooLong
			return
		}
	}
	if len(data) > from {
		s.inspected += int64(len(data) - from)
	}
	if final {
		c.Complete = true
		c.ErrKind = TagErrEOF
	}
}

// TagScan is the incremental scan for a tag's closing '>': it tracks quoted
// attribute values and whether the character before the '>' was '/' (a
// bachelor tag). It is the byte-at-a-time form of the serial engine's
// tag-end scan, shared with the split stitcher's cross-segment resolution.
type TagScan struct {
	quote        byte
	lastNonQuote byte
}

// Feed advances the scan over c. done reports that c closed the tag;
// bachelor is meaningful only when done is true.
func (t *TagScan) Feed(c byte) (done, bachelor bool) {
	if t.quote != 0 {
		if c == t.quote {
			t.quote = 0
		}
		return false, false
	}
	switch c {
	case '"', '\'':
		t.quote = c
	case '>':
		return true, t.lastNonQuote == '/'
	}
	t.lastNonQuote = c
	return false, false
}
