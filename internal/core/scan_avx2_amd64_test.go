//go:build amd64 && !purego

package core

import (
	"bytes"
	"testing"

	"smp/internal/glushkov"
)

// The AVX2 kernel joins the differential tests wherever the CPU runs it:
// once as Scan runs it, and once with a 200-byte filter span, so that the
// span handoff between filter calls — which on real inputs only happens
// every GiB — runs on every test input.
func init() {
	if !avx2Kernel {
		return
	}
	fastKernels = append(fastKernels,
		scanKernel{"avx2", (*SegmentScanner).scanAVX2},
		scanKernel{"avx2/span200", func(s *SegmentScanner, dst []Candidate, data []byte, base int64, owned int, final bool) []Candidate {
			return s.scanAVX2Span(dst, data, base, owned, final, 200)
		}},
	)
}

// TestAVX2FilterPairs runs the assembly filter over every (b1, b2) pair
// after a '<' and checks its four results against the bucket arrays: each
// anchor with a non-empty bucket survives, the anchor count and the last
// anchor position are exact, and the scan stops where the block loop must.
func TestAVX2FilterPairs(t *testing.T) {
	if !avx2Kernel {
		t.Skip("CPU does not run the AVX2 kernel")
	}
	for name, sp := range filterTestPlans(t) {
		// "<" b1 b2 for all 65536 pairs, then two bytes of slack so the
		// last triple's +1/+2 loads stay in the data.
		data := make([]byte, 0, 3*65536+2)
		for p := 0; p < 65536; p++ {
			data = append(data, '<', byte(p>>8), byte(p))
		}
		data = append(data, 'x', 'x')
		limit := len(data) - 2
		var anchors, last, w int
		survived := make(map[int]bool)
		out := make([]uint32, filterBufLen)
		for w+64 <= limit {
			n, next, a, l := filterAnchorsAVX2(data[w:], limit-w, &sp.nibbles, out)
			if next == 0 || next%64 != 0 || n > filterBufLen {
				t.Fatalf("%s: filter call at %d returned n=%d next=%d", name, w, n, next)
			}
			for _, p := range out[:n] {
				if data[w+int(p)] != '<' {
					t.Fatalf("%s: survivor %d is not an anchor", name, w+int(p))
				}
				survived[w+int(p)] = true
			}
			anchors += a
			if a > 0 {
				last = w + l
			}
			w += next
		}
		if w+64 <= limit || w > limit {
			t.Fatalf("%s: filter stopped at %d with limit %d", name, w, limit)
		}
		wantAnchors, wantLast := 0, -1
		for pos := 0; pos < w; pos++ {
			if data[pos] != '<' {
				continue
			}
			wantAnchors, wantLast = wantAnchors+1, pos
			if len(sp.NewScanner().bucket(data, pos)) > 0 && !survived[pos] {
				t.Fatalf("%s: anchor %d (%q) has a non-empty bucket but was filtered out", name, pos, data[pos:pos+3])
			}
		}
		if anchors != wantAnchors || last != wantLast {
			t.Fatalf("%s: filter counted %d anchors, last %d; want %d, last %d", name, anchors, last, wantAnchors, wantLast)
		}
	}
}

// TestAVX2FilterDenseBlocks fills whole blocks with anchors, so every block
// has more survivors than the four unconditional stores and the buffer
// fills after a few blocks: the rarely taken store loop and the early
// return with a full buffer both run, up to blocks where every lane
// survives.
func TestAVX2FilterDenseBlocks(t *testing.T) {
	if !avx2Kernel {
		t.Skip("CPU does not run the AVX2 kernel")
	}
	sp := makeScanPlan(t, fig1DTD, "/*, //australia//description#")
	data := make([]byte, 64*64+2)
	for i := range data {
		data[i] = '<'
		if i%2 == 1 {
			data[i] = 'd' // "<d" opens the non-empty "<description" bucket
		}
	}
	out := make([]uint32, 100)
	n, next, anchors, last := filterAnchorsAVX2(data, len(data)-2, &sp.nibbles, out)
	// 32 survivors per block; the buffer takes a block only while 64 slots
	// are free, so two blocks fit.
	if n != 64 || next != 128 || anchors != 64 || last != 126 {
		t.Fatalf("got n=%d next=%d anchors=%d last=%d, want 64 128 64 126", n, next, anchors, last)
	}
	for i, p := range out[:n] {
		if p != uint32(2*i) {
			t.Fatalf("survivor %d at %d, want %d", i, p, 2*i)
		}
	}
	diffKernels(t, sp, data, 0, len(data), true)

	// A run of '<' under a vocabulary with a tag starting with 0xBC, which
	// aliases '<' (0x3C) in the nibble tables: all 64 lanes of every block
	// survive. The buffer has room for one block and 63 more slots; the
	// kernel must not write past it (the slots beyond hold a sentinel).
	full := newScanPlan(nil, map[string]glushkov.Token{"<\xbcx": glushkov.Open("\xbcx")})
	anchorsOnly := bytes.Repeat([]byte{'<'}, 4*64+2)
	backing := make([]uint32, 64+63+16)
	for i := range backing {
		backing[i] = 0xdeadbeef
	}
	n, next, anchors, last = filterAnchorsAVX2(anchorsOnly, len(anchorsOnly)-2, &full.nibbles, backing[:64+63])
	if n != 64 || next != 64 || anchors != 64 || last != 63 {
		t.Fatalf("full blocks: got n=%d next=%d anchors=%d last=%d, want 64 64 64 63", n, next, anchors, last)
	}
	for i, v := range backing[64+63:] {
		if v != 0xdeadbeef {
			t.Fatalf("filter wrote slot %d past the end of its buffer", 64+63+i)
		}
	}
	diffKernels(t, full, anchorsOnly, 0, len(anchorsOnly), true)
}

func TestDetectAVX2(t *testing.T) {
	// The detection must agree with the instructions the kernel needs; a
	// CPU reporting AVX2 without BMI1 or POPCNT must fall back to SWAR.
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	want := ecx1&(1<<23) != 0 && ebx7&(1<<3) != 0 && ebx7&(1<<5) != 0 && ecx1&(1<<28) != 0
	if avx2Kernel && !want {
		t.Fatalf("avx2Kernel set, but CPUID lacks a required feature (ecx1=%#x ebx7=%#x)", ecx1, ebx7)
	}
	if got := ScanKernel(); avx2Kernel && !useScalarKernel && got != "avx2" {
		t.Fatalf("ScanKernel() = %q with the AVX2 kernel active", got)
	}
}
