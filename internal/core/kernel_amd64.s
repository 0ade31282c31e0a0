#include "textflag.h"

// chanTable offsets (TestCorrBlockLayout pins them): ref, tgt, pre and
// lanes are slice headers, data pointer first.
#define TREF 0
#define TTGT 24
#define TPRE 48
#define TLANES 72
#define TK 96
#define TW 104
#define TTAIL 112

// chanLanes offsets and size: ref, tgt and pre are [4]int, sx and ix
// [4]float64.
#define LREF 0
#define LTGT 32
#define LPRE 64
#define LSX 96
#define LIX 128
#define LSIZE 160

// corrBlock offsets: x and y are four 24-byte slice headers each, data
// pointer first, the rest [4]float64.
#define BX0 0
#define BX1 24
#define BX2 48
#define BX3 72
#define BY0 96
#define BY1 120
#define BY2 144
#define BY3 168
#define BSY 192
#define BQY 224
#define BSX 256
#define BIX 288
#define BR 320

// PEARSON4 is pearsonFromSums across four lanes: Y0 holds each lane's Σxy
// as float64, Y4 its Σy, Y5 its Σy², Y15 the window length in every
// element; sx and ix are the lanes' Σx and ix in memory. It leaves the
// clamped r in Y0 and clobbers AX and Y5–Y11. Every product is its own
// VMULPD (never FMA) and the operations run in pearsonFromSums' order.
#define PEARSON4(sx, ix) \
	MOVQ         $0x3ff0000000000000, AX; /* 1.0 */ \
	VMOVQ        AX, X9; \
	VBROADCASTSD X9, Y9; \
	MOVQ         $0xbff0000000000000, AX; /* -1.0 */ \
	VMOVQ        AX, X10; \
	VBROADCASTSD X10, Y10; \
	VXORPD       Y11, Y11, Y11; \
	VMULPD       Y5, Y15, Y5;             /* wf*qy */ \
	VMULPD       Y4, Y4, Y6;              /* sy*sy */ \
	VSUBPD       Y6, Y5, Y5;              /* vy = wf*qy - sy*sy */ \
	VCMPPD       $0x1e, Y11, Y5, Y8;      /* vy > 0 (ordered: false for NaN) */ \
	VSQRTPD      Y5, Y6; \
	VDIVPD       Y6, Y9, Y6;              /* 1/√vy */ \
	VANDPD       Y8, Y6, Y6;              /* iy: +0 where !(vy > 0) */ \
	VMULPD       Y15, Y0, Y0;             /* wf*sxy */ \
	VMULPD       sx, Y4, Y7;              /* sx*sy */ \
	VSUBPD       Y7, Y0, Y0;              /* wf*sxy - sx*sy */ \
	VMULPD       ix, Y0, Y0;              /* · ix */ \
	VMULPD       Y6, Y0, Y0;              /* · iy */ \
	VCMPPD       $0x1e, Y9, Y0, Y8;       /* r > 1 (ordered compares leave NaN unchanged) */ \
	VBLENDVPD    Y8, Y9, Y0, Y0; \
	VCMPPD       $0x11, Y10, Y0, Y8;      /* r < -1 */ \
	VBLENDVPD    Y8, Y10, Y0, Y0

// CELLS16 adds one 16-cell step of a lane into its accumulator: ref and
// tgt point at the lane's rows, AX is the step's offset. VPMOVZXBW widens
// both sides' bytes to int16, VPMADDWD multiplies them and adds adjacent
// products into eight int32, VPADDD accumulates.
#define CELLS16(ref, tgt, x, y, acc) \
	VPMOVZXBW (ref)(AX*1), x; \
	VPMOVZXBW (tgt)(AX*1), y; \
	VPMADDWD  x, y, y; \
	VPADDD    y, acc, acc

// CELLS16TAIL is CELLS16 for the window's last step: the reference's
// int16 cells are masked by chanTable.tail (DI) before the multiply.
#define CELLS16TAIL(ref, tgt, x, y, acc) \
	VPMOVZXBW (ref)(AX*1), x; \
	VPAND     TTAIL(DI), x, x; \
	VPMOVZXBW (tgt)(AX*1), y; \
	VPMADDWD  x, y, y; \
	VPADDD    y, acc, acc

// func chanKernelAVX2(t *chanTable, j int, cr, le, lt float64) (sum float64, ok bool)
//
// DI holds the table and DX the current block of lanes. Across blocks X13
// holds the running sum, X14 the channels left after this block (k−i−4)
// as float64, X12 k and Y15 w. Per block SI, BX, R8, R9 point at the
// lanes' reference cells and R10..R13 at their target cells; Y0..Y3
// accumulate the lanes' Σxy as eight int32 each over 16·⌊(w−1)/16⌋ cells
// (CX) of whole steps and one masked last step. The reduction adds each
// lane's eight sums (VPHADDD twice, then the two 128-bit halves).
TEXT ·chanKernelAVX2(SB), NOSPLIT, $0-49
	MOVQ         t+0(FP), DI
	MOVQ         TW(DI), AX
	VCVTSI2SDQ   AX, X15, X15
	VBROADCASTSD X15, Y15
	MOVQ         TK(DI), AX
	VCVTSI2SDQ   AX, X12, X12
	SUBQ         $4, AX
	VCVTSI2SDQ   AX, X14, X14
	VXORPD       X13, X13, X13
	MOVQ         TLANES(DI), DX

block:
	MOVQ TREF(DI), AX
	MOVQ LREF+0(DX), SI
	MOVQ LREF+8(DX), BX
	MOVQ LREF+16(DX), R8
	MOVQ LREF+24(DX), R9
	ADDQ AX, SI
	ADDQ AX, BX
	ADDQ AX, R8
	ADDQ AX, R9
	MOVQ TTGT(DI), AX
	ADDQ j+8(FP), AX
	MOVQ LTGT+0(DX), R10
	MOVQ LTGT+8(DX), R11
	MOVQ LTGT+16(DX), R12
	MOVQ LTGT+24(DX), R13
	ADDQ AX, R10
	ADDQ AX, R11
	ADDQ AX, R12
	ADDQ AX, R13
	MOVQ TW(DI), CX
	DECQ CX
	ANDQ $~15, CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ AX, AX
	CMPQ CX, $0
	JEQ  laststep

step:
	CELLS16(SI, R10, Y8, Y4, Y0)
	CELLS16(BX, R11, Y9, Y5, Y1)
	CELLS16(R8, R12, Y10, Y6, Y2)
	CELLS16(R9, R13, Y11, Y7, Y3)
	ADDQ $16, AX
	CMPQ AX, CX
	JLT  step

laststep:
	CELLS16TAIL(SI, R10, Y8, Y4, Y0)
	CELLS16TAIL(BX, R11, Y9, Y5, Y1)
	CELLS16TAIL(R8, R12, Y10, Y6, Y2)
	CELLS16TAIL(R9, R13, Y11, Y7, Y3)
	VPHADDD      Y1, Y0, Y0 // [a01 a23 b01 b23 | a45 a67 b45 b67]
	VPHADDD      Y3, Y2, Y2 // [c01 c23 d01 d23 | c45 c67 d45 d67]
	VPHADDD      Y2, Y0, Y0 // [a0-3 b0-3 c0-3 d0-3 | a4-7 b4-7 c4-7 d4-7]
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0 // the four lanes' Σxy
	VCVTDQ2PD    X0, Y0

	// Σy and Σy²: each lane's rowPre{s, q} at j (SI) and at j+w (BX),
	// subtracted as int32 pairs, then split into the s and q halves.
	MOVQ      TPRE(DI), SI
	MOVQ      TW(DI), CX
	LEAQ      (SI)(CX*8), BX
	MOVQ      j+8(FP), CX
	MOVQ      LPRE+0(DX), R8
	MOVQ      LPRE+8(DX), R9
	MOVQ      LPRE+16(DX), R10
	MOVQ      LPRE+24(DX), R11
	ADDQ      CX, R8
	ADDQ      CX, R9
	ADDQ      CX, R10
	ADDQ      CX, R11
	VMOVQ     (SI)(R8*8), X4
	VPINSRQ   $1, (SI)(R9*8), X4, X4
	VMOVQ     (SI)(R10*8), X5
	VPINSRQ   $1, (SI)(R11*8), X5, X5
	VMOVQ     (BX)(R8*8), X6
	VPINSRQ   $1, (BX)(R9*8), X6, X6
	VMOVQ     (BX)(R10*8), X7
	VPINSRQ   $1, (BX)(R11*8), X7, X7
	VPSUBD    X4, X6, X6         // [s0 q0 s1 q1]
	VPSUBD    X5, X7, X7         // [s2 q2 s3 q3]
	VSHUFPS   $0x88, X7, X6, X4  // [s0 s1 s2 s3]
	VSHUFPS   $0xdd, X7, X6, X5  // [q0 q1 q2 q3]
	VCVTDQ2PD X4, Y4
	VCVTDQ2PD X5, Y5
	PEARSON4(LSX(DX), LIX(DX))

	// Add the real lanes' r in channel order: all four unless this is
	// the last block (k−i−4 ≤ 0), which holds k−i of them.
	VUNPCKHPD    X0, X0, X1
	VEXTRACTF128 $1, Y0, X2
	VUNPCKHPD    X2, X2, X3
	VCVTTSD2SIQ   X14, AX
	VADDSD       X0, X13, X13
	CMPQ         AX, $-3
	JEQ          done
	VADDSD       X1, X13, X13
	CMPQ         AX, $-2
	JEQ          done
	VADDSD       X2, X13, X13
	CMPQ         AX, $-1
	JEQ          done
	VADDSD       X3, X13, X13
	CMPQ         AX, $0
	JLE          done

	// The abandon test: bound = (sum + (k−i−4))/k + cr + abandonSlack
	// (1e-9), dead when bound ≤ le or bound < lt; both compares are
	// ordered, so a NaN bound or threshold never abandons.
	VADDSD   X14, X13, X1
	VDIVSD   X12, X1, X1
	VADDSD   cr+16(FP), X1, X1
	MOVQ     $0x3e112e0be826d695, AX // 1e-9
	VMOVQ    AX, X2
	VADDSD   X2, X1, X1
	VMOVSD   le+24(FP), X2
	VUCOMISD X1, X2
	JCC      abandon                 // le ≥ bound
	VMOVSD   lt+32(FP), X2
	VUCOMISD X1, X2
	JHI      abandon                 // lt > bound
	MOVQ     $0x4010000000000000, AX // 4.0
	VMOVQ    AX, X1
	VSUBSD   X1, X14, X14
	ADDQ     $LSIZE, DX
	JMP      block

done:
	VMOVSD X13, sum+40(FP)
	MOVB   $1, ok+48(FP)
	VZEROUPPER
	RET

abandon:
	VMOVSD X13, sum+40(FP)
	MOVB   $0, ok+48(FP)
	VZEROUPPER
	RET

// func corr4AVX2(b *corrBlock, n int, wf float64)
//
// Y0..Y3 accumulate lanes 0..3: element l of Yc is dot's s_l for lane c.
// After the 4-wide loop a transpose turns them into S0..S3 (element c of
// Sl is lane c's s_l), the n%4 tail is added into S0 one element at a
// time, and (S0+S1)+(S2+S3) gives every lane's Σxy in dot's order. No FMA
// anywhere: every product is rounded by VMULPD before VADDPD adds it.
TEXT ·corr4AVX2(SB), NOSPLIT, $0-24
	MOVQ b+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ BX0(DI), SI
	MOVQ BX1(DI), BX
	MOVQ BX2(DI), R8
	MOVQ BX3(DI), R9
	MOVQ BY0(DI), R10
	MOVQ BY1(DI), R11
	MOVQ BY2(DI), R12
	MOVQ BY3(DI), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX
	MOVQ CX, DX
	SUBQ $3, DX

loop4:
	CMPQ AX, DX
	JGE  transpose
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD (BX)(AX*8), Y5
	VMOVUPD (R8)(AX*8), Y6
	VMOVUPD (R9)(AX*8), Y7
	VMULPD  (R10)(AX*8), Y4, Y4
	VMULPD  (R11)(AX*8), Y5, Y5
	VMULPD  (R12)(AX*8), Y6, Y6
	VMULPD  (R13)(AX*8), Y7, Y7
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VADDPD  Y6, Y2, Y2
	VADDPD  Y7, Y3, Y3
	ADDQ    $4, AX
	JMP     loop4

transpose:
	VUNPCKLPD  Y1, Y0, Y4       // [a0 b0 a2 b2]
	VUNPCKHPD  Y1, Y0, Y5       // [a1 b1 a3 b3]
	VUNPCKLPD  Y3, Y2, Y6       // [c0 d0 c2 d2]
	VUNPCKHPD  Y3, Y2, Y7       // [c1 d1 c3 d3]
	VPERM2F128 $0x20, Y6, Y4, Y0 // S0 = [a0 b0 c0 d0]
	VPERM2F128 $0x20, Y7, Y5, Y1 // S1
	VPERM2F128 $0x31, Y6, Y4, Y2 // S2
	VPERM2F128 $0x31, Y7, Y5, Y3 // S3

tail:
	CMPQ        AX, CX
	JGE         reduce
	VMOVSD      (SI)(AX*8), X4
	VMOVHPD     (BX)(AX*8), X4, X4
	VMOVSD      (R8)(AX*8), X5
	VMOVHPD     (R9)(AX*8), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	VMOVSD      (R10)(AX*8), X6
	VMOVHPD     (R11)(AX*8), X6, X6
	VMOVSD      (R12)(AX*8), X7
	VMOVHPD     (R13)(AX*8), X7, X7
	VINSERTF128 $1, X7, Y6, Y6
	VMULPD      Y6, Y4, Y4
	VADDPD      Y4, Y0, Y0
	INCQ        AX
	JMP         tail

reduce:
	VADDPD Y1, Y0, Y0 // s0 + s1
	VADDPD Y3, Y2, Y2 // s2 + s3
	VADDPD       Y2, Y0, Y0 // sxy
	VMOVUPD      BSY(DI), Y4
	VMOVUPD      BQY(DI), Y5
	VBROADCASTSD wf+16(FP), Y15
	PEARSON4(BSX(DI), BIX(DI))
	VMOVUPD      Y0, BR(DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
