//go:build !amd64 || purego

package core

// avx2Kernel reports whether Scan runs the AVX2 anchor filter. Without the
// amd64 assembly (other architectures, the purego tag) it never does.
const avx2Kernel = false

// scanAVX2 is never reached without the assembly kernel (avx2Kernel is
// false); it exists so that Scan compiles on every platform.
func (s *SegmentScanner) scanAVX2(dst []Candidate, data []byte, base int64, owned int, final bool) []Candidate {
	return s.scanSWAR(dst, data, base, owned, final)
}
