//go:build !amd64

package core

// hasAVX2 is false off amd64, so the kernels always run their Go twins.
const hasAVX2 = false

// corr4I16AVX2 and corr4AVX2 exist as assembly only on amd64; the kernel
// dispatchers never reach these stand-ins.
func corr4I16AVX2(b *chanBlock, n int, wf float64) { corr4I16Generic(b, n, wf) }

func corr4AVX2(b *corrBlock, n int, wf float64) { corr4Generic(b, n, wf) }
