//go:build !amd64

package core

// hasAVX2 is false off amd64, so corr4 always runs corr4Generic.
const hasAVX2 = false

// corr4AVX2 exists as assembly only on amd64; corr4 never reaches this
// stand-in.
func corr4AVX2(b *corrBlock, n int, wf float64) { corr4Generic(b, n, wf) }
