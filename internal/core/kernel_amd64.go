package core

// hasAVX2 selects the assembly correlation kernels. It is decided once, from
// CPUID and XGETBV: the CPU must implement AVX and AVX2, and the operating
// system must save the YMM state across context switches (OSXSAVE set and
// XCR0 enabling both the SSE and AVX state components).
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// chanKernelAVX2 is chanKernelGeneric in AVX2 (kernel_amd64.s). Per block
// of four lanes and 16-cell step, VPMOVZXBW widens the reference and the
// target bytes to int16 (the last step's reference masked by t.tail),
// VPMADDWD multiplies them and adds adjacent pairs into int32, and VPADDD
// accumulates; VPHADDD and VEXTRACTI128 reduce the four lanes' Σxy. Σy and
// Σy² are the int32 differences of the lanes' prefix entries at j and j+w.
// The Pearson step runs across the lanes, the real lanes' r are added in
// channel order, and the abandon test runs where chanKernelGeneric's does,
// with the same operations in the same order, so the sum bits and the
// verdict are the twin's. The table must hold at least one block (k ≥ 1,
// w ≥ 1), and every row the kernel reads must extend 15 bytes past the
// window (the index rows' cellPad): it reads whole 16-cell steps without
// bounds checks.
//
//go:noescape
func chanKernelAVX2(t *chanTable, j int, cr, le, lt float64) (sum float64, ok bool)

// corr4AVX2 is corr4Generic in AVX2 (kernel_amd64.s): one YMM accumulator
// per lane whose element l is dot's s_l, a 4×4 transpose, the n%4 tail
// into s0, and the Pearson step across the four lanes at once. Products
// and sums are separate VMULPD/VADDPD (never FMA), so every lane returns
// corr4Generic's bits. The caller must have resliced every x and y row to
// n: the assembly reads n elements from each without bounds checks.
//
//go:noescape
func corr4AVX2(b *corrBlock, n int, wf float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
