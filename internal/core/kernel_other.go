//go:build !amd64

package core

// hasAVX2 is false off amd64, so the kernels always run their Go twins.
const hasAVX2 = false

// chanKernelAVX2 and corr4AVX2 exist as assembly only on amd64; the kernel
// dispatchers never reach these stand-ins.
func chanKernelAVX2(t *chanTable, j int, cr, le, lt float64) (float64, bool) {
	return chanKernelGeneric(t, j, cr, le, lt)
}

func corr4AVX2(b *corrBlock, n int, wf float64) { corr4Generic(b, n, wf) }
