#include "textflag.h"

// chanBlock and corrBlock field offsets, the same in both blocks
// (TestCorrBlockLayout pins them): x and y are four 24-byte slice headers
// each, data pointer first, the rest [4]float64.
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

// PEARSON4 is pearsonFromSums across the four lanes: Y0 holds each lane's
// Σxy as float64, DI the block, wf the window length. It stores the
// clamped r and returns. Every product is its own VMULPD (never FMA) and
// the operations run in pearsonFromSums' order.
#define PEARSON4 \
	VBROADCASTSD wf+16(FP), Y15; \
	MOVQ         $0x3ff0000000000000, AX; /* 1.0 */ \
	VMOVQ        AX, X9; \
	VBROADCASTSD X9, Y9; \
	MOVQ         $0xbff0000000000000, AX; /* -1.0 */ \
	VMOVQ        AX, X10; \
	VBROADCASTSD X10, Y10; \
	VXORPD       Y11, Y11, Y11; \
	VMOVUPD      BSY(DI), Y4;             /* sy */ \
	VMULPD       BQY(DI), Y15, Y5;        /* wf*qy */ \
	VMULPD       Y4, Y4, Y6;              /* sy*sy */ \
	VSUBPD       Y6, Y5, Y5;              /* vy = wf*qy - sy*sy */ \
	VCMPPD       $0x1e, Y11, Y5, Y8;      /* vy > 0 (ordered: false for NaN) */ \
	VSQRTPD      Y5, Y6; \
	VDIVPD       Y6, Y9, Y6;              /* 1/√vy */ \
	VANDPD       Y8, Y6, Y6;              /* iy: +0 where !(vy > 0) */ \
	VMULPD       Y15, Y0, Y0;             /* wf*sxy */ \
	VMULPD       BSX(DI), Y4, Y7;         /* sx*sy */ \
	VSUBPD       Y7, Y0, Y0;              /* wf*sxy - sx*sy */ \
	VMULPD       BIX(DI), Y0, Y0;         /* · ix */ \
	VMULPD       Y6, Y0, Y0;              /* · iy */ \
	VCMPPD       $0x1e, Y9, Y0, Y8;       /* r > 1 (ordered compares leave NaN unchanged) */ \
	VBLENDVPD    Y8, Y9, Y0, Y0; \
	VCMPPD       $0x11, Y10, Y0, Y8;      /* r < -1 */ \
	VBLENDVPD    Y8, Y10, Y0, Y0; \
	VMOVUPD      Y0, BR(DI); \
	VZEROUPPER; \
	RET

// func corr4I16AVX2(b *chanBlock, n int, wf float64)
//
// Y0..Y3 accumulate lanes 0..3 as eight int32 each. One step takes 16
// cells per lane: VPMOVZXBW widens the target bytes to int16, VPMADDWD
// multiplies them against the reference's int16 cells and adds adjacent
// products, VPADDD accumulates. A window that is not a multiple of 16
// reads up to 15 elements past n in both rows; the reference's zero pad
// cancels them. The reduction adds each lane's eight sums (VPHADDD twice,
// then the two 128-bit halves), and VCVTDQ2PD converts the four totals.
TEXT ·corr4I16AVX2(SB), NOSPLIT, $0-24
	MOVQ  b+0(FP), DI
	MOVQ  n+8(FP), CX
	MOVQ  BX0(DI), SI
	MOVQ  BX1(DI), BX
	MOVQ  BX2(DI), R8
	MOVQ  BX3(DI), R9
	MOVQ  BY0(DI), R10
	MOVQ  BY1(DI), R11
	MOVQ  BY2(DI), R12
	MOVQ  BY3(DI), R13
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  AX, AX

loop16:
	CMPQ      AX, CX
	JGE       hsum
	VPMOVZXBW (R10)(AX*1), Y4
	VPMOVZXBW (R11)(AX*1), Y5
	VPMOVZXBW (R12)(AX*1), Y6
	VPMOVZXBW (R13)(AX*1), Y7
	VPMADDWD  (SI)(AX*2), Y4, Y4
	VPMADDWD  (BX)(AX*2), Y5, Y5
	VPMADDWD  (R8)(AX*2), Y6, Y6
	VPMADDWD  (R9)(AX*2), Y7, Y7
	VPADDD    Y4, Y0, Y0
	VPADDD    Y5, Y1, Y1
	VPADDD    Y6, Y2, Y2
	VPADDD    Y7, Y3, Y3
	ADDQ      $16, AX
	JMP       loop16

hsum:
	VPHADDD      Y1, Y0, Y0 // [a01 a23 b01 b23 | a45 a67 b45 b67]
	VPHADDD      Y3, Y2, Y2 // [c01 c23 d01 d23 | c45 c67 d45 d67]
	VPHADDD      Y2, Y0, Y0 // [a0-3 b0-3 c0-3 d0-3 | a4-7 b4-7 c4-7 d4-7]
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0 // the four lanes' Σxy
	VCVTDQ2PD    X0, Y0
	PEARSON4

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
	VADDPD Y2, Y0, Y0 // sxy
	PEARSON4

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
