//go:build amd64 && !purego

package core

// This file is the AVX2 scan kernel: an assembly anchor filter
// (scan_avx2_amd64.s) in front of the SWAR verifier. Per 64-byte block the
// filter builds the '<' mask with VPCMPEQB/VPMOVMSKB and tests the byte
// after each '<' — after "</", the byte after the slash — against the
// nibble tables of ScanPlan (Teddy-style VPSHUFB lookups; Wang et al.,
// "Hyperscan", NSDI 2019). Anchors whose bucket cannot hold a keyword are
// dropped in the vector domain; the surviving positions are flattened into
// a []uint32 with unconditional TZCNT/BLSR stores (simdjson's bit
// flattening; Langdale & Lemire, VLDB J. 2019), and Go verifies only those.
//
// A dropped anchor is exactly one that the SWAR and scalar kernels count as
// one Shift and one Comparison and nothing else, so the filter returns the
// block popcount and the last anchor position and the counters stay
// identical across all three kernels.

// filterAnchorsAVX2 scans the 64-byte blocks of data[:limit] for '<'
// anchors (limit+2 <= len(data), so the loads at +1 and +2 stay in data).
// It writes the positions of the anchors that pass the nibble tables tab to
// out and returns how many it wrote (n), the offset of the first block it
// did not scan (next), the number of anchors in the scanned blocks and the
// position of the last one (-1 if none). It stops early, at a block
// boundary, once out has room for fewer than 64 more positions. Positions
// are relative to data[0]; callers keep limit below 1<<32.
//
//go:noescape
func filterAnchorsAVX2(data []byte, limit int, tab *[128]byte, out []uint32) (n, next, anchors, last int)

// cpuid and xgetbv execute the instructions of the same name.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// avx2Kernel reports whether this CPU runs the AVX2 kernel: AVX2, BMI1
// (TZCNT, BLSR) and POPCNT, with the OS saving YMM state.
var avx2Kernel = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if ecx1&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const bmi1, avx2 = 1 << 3, 1 << 5
	return ebx7&(bmi1|avx2) == bmi1|avx2
}

const (
	// filterBufLen is the survivor buffer of one filter call; the kernel
	// returns when fewer than 64 slots are left.
	filterBufLen = 512
	// filterSpan bounds the bytes one filter call covers, so positions fit
	// the kernel's uint32 buffer on inputs of any size.
	filterSpan = 1 << 30
)

// scanAVX2 is the AVX2 kernel: same candidates, same counters as scanSWAR.
func (s *SegmentScanner) scanAVX2(dst []Candidate, data []byte, base int64, owned int, final bool) []Candidate {
	return s.scanAVX2Span(dst, data, base, owned, final, filterSpan)
}

// scanAVX2Span is scanAVX2 with the per-call span (at least 64) as a
// parameter, so tests can run the span handoff on small inputs.
func (s *SegmentScanner) scanAVX2Span(dst []Candidate, data []byte, base int64, owned int, final bool, span int) []Candidate {
	var buf [filterBufLen]uint32
	limit := min(owned, len(data)-2)
	anchors, last := int64(0), -1
	w := 0
	for w+64 <= limit {
		n, next, a, l := filterAnchorsAVX2(data[w:], min(limit-w, span), &s.sp.nibbles, buf[:])
		if a > 0 {
			anchors += int64(a)
			last = w + l
		}
		for _, p := range buf[:n] {
			pos := w + int(p)
			if pos+8 > len(data) {
				dst = s.verifySWAR(dst, data, base, pos, final)
				continue
			}
			// verifySWAR inlined: the filter admits a superset of the
			// non-empty buckets, and a call per survivor costs the kernel
			// 5–10% on XMark and MEDLINE.
			if bucket := s.bucket(data, pos); len(bucket) > 0 {
				dst = s.verifyBucket(dst, bucket, data, base, pos, final)
			}
		}
		w += next
	}
	return s.scanSWARFrom(dst, data, base, owned, final, w, anchors, last)
}
