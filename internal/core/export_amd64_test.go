//go:build amd64 && !purego

package core

// UseSWARKernel makes Scan run the SWAR kernel instead of the AVX2 kernel
// until the returned function restores the CPU's choice. It exists for the
// projection parity test of package core_test, which runs the pipeline and
// so cannot live in package core.
func UseSWARKernel() (restore func()) {
	old := avx2Kernel
	avx2Kernel = false
	return func() { avx2Kernel = old }
}
