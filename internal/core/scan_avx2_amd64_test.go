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

// TestAVX2FilterPairs runs the assembly filter over every two-byte prefix
// after '<' ("<b1b2") and after "</" ("</b1b2") and checks its results
// against the scalar model of the nibble tables (nibblePass) and the exact
// test: each anchor survives exactly when the model admits it, every anchor
// that starts a keyword survives, and the scan stops where the block loop
// must.
func TestAVX2FilterPairs(t *testing.T) {
	if !avx2Kernel {
		t.Skip("CPU does not run the AVX2 kernel")
	}
	// "<" b1 b2 and "</" b1 b2 for all 65536 pairs, then three bytes of
	// slack so the last anchor's +1..+3 loads stay in the data.
	data := make([]byte, 0, 7*65536+3)
	for p := 0; p < 65536; p++ {
		data = append(data, '<', byte(p>>8), byte(p), '<', '/', byte(p>>8), byte(p))
	}
	data = append(data, 'x', 'x', 'x')
	limit := len(data) - 3
	for name, sp := range filterTestPlans(t) {
		var w int
		survived := make(map[int]bool)
		out := make([]uint32, filterBufLen)
		for w+64 <= limit {
			n, next := filterAnchorsAVX2(data[w:], limit-w, &sp.nibbles, out)
			if next == 0 || next%64 != 0 || n > filterBufLen {
				t.Fatalf("%s: filter call at %d returned n=%d next=%d", name, w, n, next)
			}
			for _, p := range out[:n] {
				if data[w+int(p)] != '<' {
					t.Fatalf("%s: survivor %d is not an anchor", name, w+int(p))
				}
				survived[w+int(p)] = true
			}
			w += next
		}
		if w+64 <= limit || w > limit {
			t.Fatalf("%s: filter stopped at %d with limit %d", name, w, limit)
		}
		s := sp.NewScanner()
		for pos := 0; pos < w; pos++ {
			if data[pos] != '<' {
				continue
			}
			if model := nibblePass(&sp.nibbles, data, pos); survived[pos] != model {
				t.Fatalf("%s: anchor %d (%q) survived=%v, nibble tables %v", name, pos, data[pos:pos+4], survived[pos], model)
			}
			if s.bucket(data, pos) != nil && !survived[pos] {
				t.Fatalf("%s: anchor %d (%q) starts a keyword but was filtered out", name, pos, data[pos:pos+4])
			}
		}
	}
}

// TestAVX2FilterDenseBlocks fills whole blocks with anchors that pass the
// two-byte test, so every block has more survivors than the four
// unconditional stores and the buffer fills after a few blocks: the rarely
// taken store loop and the early return with a full buffer both run, up to
// blocks where every lane survives.
func TestAVX2FilterDenseBlocks(t *testing.T) {
	if !avx2Kernel {
		t.Skip("CPU does not run the AVX2 kernel")
	}
	// "<a " starts the one-byte keyword "<a" at every third byte: 22
	// survivors in the first block, 21 in the next ones.
	sp := nonASCIIScanPlan()
	data := bytes.Repeat([]byte("<a "), 64*64/3+1)
	out := make([]uint32, 100)
	n, next := filterAnchorsAVX2(data, len(data)-3, &sp.nibbles, out)
	// The buffer takes a block only while 64 slots are free, so two blocks
	// fit.
	if n != 43 || next != 128 {
		t.Fatalf("got n=%d next=%d, want 43 128", n, next)
	}
	for i, p := range out[:n] {
		if p != uint32(3*i) {
			t.Fatalf("survivor %d at %d, want %d", i, p, 3*i)
		}
	}
	diffKernels(t, sp, data, 0, len(data), true)

	// A run of '<' under a vocabulary whose every '<' lane passes the
	// nibble tables, though none starts a keyword: its first tagname byte
	// '4' (0x34) shares '<''s (0x3C) high nibble and group (the low three
	// bits), and its follow set {'|', '0'} holds '<''s low nibble (from '|',
	// 0x7C) and high nibble (from '0', 0x30). All 64 lanes of every block
	// survive. The buffer has room for one block and 63 more slots; the
	// kernel must not write past it (the slots beyond hold a sentinel).
	full := newScanPlan(nil, map[string]glushkov.Token{
		"<4|": glushkov.Open("4|"),
		"<40": glushkov.Open("40"),
	})
	anchorsOnly := bytes.Repeat([]byte{'<'}, 4*64+3)
	backing := make([]uint32, 64+63+16)
	for i := range backing {
		backing[i] = 0xdeadbeef
	}
	n, next = filterAnchorsAVX2(anchorsOnly, len(anchorsOnly)-3, &full.nibbles, backing[:64+63])
	if n != 64 || next != 64 {
		t.Fatalf("full blocks: got n=%d next=%d, want 64 64", n, next)
	}
	for i, v := range backing[64+63:] {
		if v != 0xdeadbeef {
			t.Fatalf("filter wrote slot %d past the end of its buffer", 64+63+i)
		}
	}
	if got := diffKernels(t, full, anchorsOnly, 0, len(anchorsOnly), true); len(got) != 0 {
		t.Fatalf("a run of '<' yielded %d candidates", len(got))
	}
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
