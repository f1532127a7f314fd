package core

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"os"
)

// This file is the SWAR (SIMD-within-a-register) scan kernel, in the style
// of Go's internal/bytealg: the input is processed 8 bytes at a time with a
// uint64 broadcast-compare to find '<' anchors, and verification is
// branch-free for short keywords — the 8 bytes at the anchor are loaded as
// one word and compared against the precomputed masked pattern of each
// bucket entry (scanKeyword.word/mask), falling back to the byte loop only
// for keywords longer than 8 bytes and for anchors too close to the data end
// for a word load.
//
// The kernel is a drop-in replacement for the scalar reference
// (scanScalar): it reports the same candidates in the same order with the
// same counters. It is the portable kernel Scan runs wherever the AVX2
// kernel (scan_avx2_amd64.go) does not, and the AVX2 kernel shares its
// verifier and its tail loops (scanSWARFrom).
// FuzzScanEquivalence and TestScanSWAREquivalence difference every kernel
// against the reference candidate-for-candidate; SMP_SCAN_KERNEL=scalar
// selects the reference kernel at run time (smpbench -scan reports both).

const (
	swarLo7 = 0x7F7F7F7F7F7F7F7F // low 7 bits of every byte lane

	// anchorBroadcast is '<' replicated into every lane; XORing it into a
	// loaded word zeroes exactly the lanes holding an anchor.
	anchorBroadcast = '<' * uint64(0x0101010101010101)

	// movemaskMul gathers the high bit of every byte lane into the top
	// byte: for z with bits only at lane MSBs (positions 8k+7), bit 56+k of
	// z*movemaskMul is lane k's bit, and every colliding partial product
	// falls above bit 63 where the 64-bit multiply discards it. This is the
	// scalar emulation of SSE2's PMOVMSKB.
	movemaskMul = 0x0002040810204081
)

// useScalarKernel pins every Scan call to the byte-at-a-time reference
// kernel; set SMP_SCAN_KERNEL=scalar to record pre-SWAR baselines or to
// bisect a suspected kernel difference in production.
var useScalarKernel = os.Getenv("SMP_SCAN_KERNEL") == "scalar"

// openTerm and closeTerm are the IsTagTerminator lookup tables: the bytes
// that may directly follow a tagname inside a tag (whitespace, '>' and, for
// opening tags only, '/').
var openTerm, closeTerm [256]bool

func init() {
	for _, c := range []byte{' ', '\t', '\r', '\n', '>'} {
		openTerm[c] = true
		closeTerm[c] = true
	}
	openTerm['/'] = true
}

// zeroLanes returns a word with the high bit set in exactly the byte lanes
// of x that are zero, and no other bit set. The carry-free form — add
// within the low 7 bits of each lane, so no borrow ever crosses a lane — is
// deliberate: the cheaper (x-lo)&^x&hi haszero idiom reports false
// positives in lanes above a true zero lane (an 0x01 lane directly after a
// zero lane absorbs the borrow), which is harmless when only the first
// match is taken (memchr) but wrong for iterating every anchor in the word.
func zeroLanes(x uint64) uint64 {
	return ^(((x & swarLo7) + swarLo7) | x | swarLo7)
}

// scanSWAR is the multi-anchor kernel: one load per 8 input bytes, one
// trailing-zeros step per anchor.
func (s *SegmentScanner) scanSWAR(dst []Candidate, data []byte, base int64, owned int, final bool) []Candidate {
	return s.scanSWARFrom(dst, data, base, owned, final, 0)
}

// scanSWARFrom runs the SWAR kernel over the owned bytes from offset w on,
// so a kernel that hands its tail here (the AVX2 filter) shares the tail
// loops.
func (s *SegmentScanner) scanSWARFrom(dst []Candidate, data []byte, base int64, owned int, final bool, w int) []Candidate {
	// 64-byte blocks: eight independent load/compare chains packed into one
	// per-block anchor bitmask (bit k = anchor at data[w+k]), so the only
	// data-dependent branch is the anchor iteration itself — one short,
	// well-predicted loop per block instead of a branch per word.
	for w+64 <= owned {
		m := (zeroLanes(binary.LittleEndian.Uint64(data[w:])^anchorBroadcast)*movemaskMul)>>56 |
			(zeroLanes(binary.LittleEndian.Uint64(data[w+8:])^anchorBroadcast)*movemaskMul)>>56<<8 |
			(zeroLanes(binary.LittleEndian.Uint64(data[w+16:])^anchorBroadcast)*movemaskMul)>>56<<16 |
			(zeroLanes(binary.LittleEndian.Uint64(data[w+24:])^anchorBroadcast)*movemaskMul)>>56<<24 |
			(zeroLanes(binary.LittleEndian.Uint64(data[w+32:])^anchorBroadcast)*movemaskMul)>>56<<32 |
			(zeroLanes(binary.LittleEndian.Uint64(data[w+40:])^anchorBroadcast)*movemaskMul)>>56<<40 |
			(zeroLanes(binary.LittleEndian.Uint64(data[w+48:])^anchorBroadcast)*movemaskMul)>>56<<48 |
			(zeroLanes(binary.LittleEndian.Uint64(data[w+56:])^anchorBroadcast)*movemaskMul)>>56<<56
		if m == 0 {
			w += 64
			continue
		}
		for ; m != 0; m &= m - 1 {
			pos := w + bits.TrailingZeros64(m)
			if pos+8 > len(data) {
				dst = s.verifySWAR(dst, data, base, pos, final)
				continue
			}
			// Most anchors open tags outside the union vocabulary: the
			// two-byte test rejects them here, without a call.
			if bucket := s.bucket(data, pos); len(bucket) > 0 {
				dst = s.verifyBucket(dst, bucket, data, base, pos, final)
			}
		}
		w += 64
	}
	for w+8 <= owned {
		m := zeroLanes(binary.LittleEndian.Uint64(data[w:]) ^ anchorBroadcast)
		for m != 0 {
			pos := w + bits.TrailingZeros64(m)>>3
			m &= m - 1
			dst = s.verifySWAR(dst, data, base, pos, final)
		}
		w += 8
	}
	// Anchors in the final sub-8-byte tail of the owned range.
	for pos := w; pos < owned; pos++ {
		if data[pos] == '<' {
			dst = s.verifySWAR(dst, data, base, pos, final)
		}
	}
	return dst
}

// verifySWAR resolves the unique keyword valid at the '<' anchor pos, like
// verifyScalar but with one masked word compare per bucket entry instead of
// a byte loop, and appends its candidate, if any, to dst. Anchors within 8
// bytes of the data end take the scalar path — there a word load would read
// past the buffer.
func (s *SegmentScanner) verifySWAR(dst []Candidate, data []byte, base int64, pos int, final bool) []Candidate {
	if pos+8 > len(data) {
		if c, ok := s.verifyScalar(data, base, pos, final); ok {
			dst = append(dst, c)
		}
		return dst
	}
	bucket := s.bucket(data, pos)
	if len(bucket) == 0 {
		return dst
	}
	return s.verifyBucket(dst, bucket, data, base, pos, final)
}

// bucket returns the keywords that can start at the '<' anchor pos, or nil
// when none can: the opening keywords whose first tagname byte is the byte
// after the '<', or after "</" the closing keywords whose first tagname
// byte is the byte after the slash — provided the byte after that is in the
// bucket's follow set. The anchor's two tagname bytes must be in data:
// pos+2 after '<', pos+3 after "</".
func (s *SegmentScanner) bucket(data []byte, pos int) []scanKeyword {
	b, next := int(data[pos+1]), data[pos+2]
	if b == '/' {
		b, next = 256+int(next), data[pos+3]
	}
	if bk := &s.sp.buckets[s.sp.bucketOf[b]]; bk.admits(next) {
		return bk.kws
	}
	return nil
}

// verifyBucket runs the masked word compares for the keywords bucket
// returned and appends the candidate, if any, to dst; the caller has
// already ruled out the near-end boundary (pos+8 <= len(data)). One
// inspected character for the probe, then len+1 for each keyword whose end
// is in view, match or not.
func (s *SegmentScanner) verifyBucket(dst []Candidate, bucket []scanKeyword, data []byte, base int64, pos int, final bool) []Candidate {
	s.inspected++
	load := binary.LittleEndian.Uint64(data[pos:])
	var ok bool
	for k := range bucket {
		kw := &bucket[k]
		end := pos + len(kw.pattern)
		if end >= len(data) {
			continue
		}
		s.inspected += int64(len(kw.pattern)) + 1
		if load&kw.mask != kw.word {
			continue
		}
		if dst, ok = s.acceptKeyword(dst, kw, data, base, pos, end, final); ok {
			return dst
		}
	}
	return dst
}

// acceptKeyword finishes a keyword whose first word already matched: the
// tail compare for patterns longer than the word, the terminator check, and
// the tag-end resolution. It appends the candidate to dst and reports
// whether it did. A terminator failure counts as rejected; either failure
// leaves the bucket loop free to try the next keyword.
func (s *SegmentScanner) acceptKeyword(dst []Candidate, kw *scanKeyword, data []byte, base int64, pos, end int, final bool) ([]Candidate, bool) {
	if len(kw.pattern) > 8 && !bytes.Equal(data[pos+8:end], kw.pattern[8:]) {
		return dst, false
	}
	if kw.close {
		if !closeTerm[data[end]] {
			s.rejected++
			return dst, false
		}
	} else if !openTerm[data[end]] {
		s.rejected++
		return dst, false
	}
	// The candidate is built in place, in dst, where scanTagEnd fills in
	// its tag end.
	dst = append(dst, Candidate{})
	c := &dst[len(dst)-1]
	c.Pos, c.KwLen, c.Kw, c.Close = base+int64(pos), int32(len(kw.pattern)), kw.id, kw.close
	s.scanTagEnd(data, base, pos, end, final, c)
	if c.Close {
		c.Bachelor = false
	}
	return dst, true
}
