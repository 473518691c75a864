#include "textflag.h"

// Assembly versions of the loops in kernels.go. adamUpdate and
// gatherAxpySSE2 use SSE2, part of amd64's baseline; gatherAxpyAVX2 runs
// only where detectAVX2 (kernels_amd64.go) found AVX2 and YMM state saved
// by the OS. Each lane applies the Go loop's operations in the Go loop's
// order, with no fused multiply-add (the Go compiler fuses only an
// explicit math.FMA on amd64), so every result rounds exactly as the Go
// loop's does.

// func adamUpdate(p, g, m, v []float64, scale, decay, im, isq float64)
TEXT ·adamUpdate(SB), NOSPLIT, $0-128
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	MOVQ g_base+24(FP), DI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9

	// Every constant sits in both lanes of its register.
	MOVSD    scale+96(FP), X8
	UNPCKLPD X8, X8
	MOVSD    decay+104(FP), X9
	UNPCKLPD X9, X9
	MOVSD    im+112(FP), X10
	UNPCKLPD X10, X10
	MOVSD    isq+120(FP), X11
	UNPCKLPD X11, X11
	MOVQ     $0x3feccccccccccccd, AX // beta1 = 0.9
	MOVQ     AX, X12
	UNPCKLPD X12, X12
	MOVQ     $0x3fb999999999999a, AX // 1-beta1, as Go folds it
	MOVQ     AX, X13
	UNPCKLPD X13, X13
	MOVQ     $0x3feff7ced916872b, AX // beta2 = 0.999
	MOVQ     AX, X14
	UNPCKLPD X14, X14
	MOVQ     $0x3f50624dd2f1a9fc, AX // 1-beta2, as Go folds it
	MOVQ     AX, X15
	UNPCKLPD X15, X15
	MOVQ     $0x3e45798ee2308c3a, AX // eps = 1e-8
	MOVQ     AX, X7
	UNPCKLPD X7, X7
	XORPD    X6, X6

	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-2, DX
	JZ   adamtail

adamloop:
	MOVUPD (DI)(BX*8), X0 // grad
	MOVUPD (SI)(BX*8), X1 // p
	MOVUPD X6, (DI)(BX*8) // the gradient is consumed
	MULPD  X8, X0         // grad·scale
	MOVAPD X1, X2
	MULPD  X9, X2         // decay·p
	ADDPD  X2, X0         // g = grad·scale + decay·p
	MOVUPD (R8)(BX*8), X2
	MULPD  X12, X2        // 0.9·m
	MOVAPD X0, X3
	MULPD  X13, X3        // 0.1·g
	ADDPD  X3, X2         // m' = 0.9·m + 0.1·g
	MOVUPD X2, (R8)(BX*8)
	MOVUPD (R9)(BX*8), X3
	MULPD  X14, X3        // 0.999·v
	MOVAPD X0, X4
	MULPD  X15, X4        // 0.001·g
	MULPD  X0, X4         // (0.001·g)·g
	ADDPD  X4, X3         // v' = 0.999·v + (0.001·g)·g
	MOVUPD X3, (R9)(BX*8)
	SQRTPD X3, X3
	MULPD  X11, X3        // √v'·isq
	ADDPD  X7, X3         // √v'·isq + eps
	MULPD  X10, X2        // im·m'
	DIVPD  X3, X2         // (im·m') / (√v'·isq + eps)
	SUBPD  X2, X1
	MOVUPD X1, (SI)(BX*8)
	ADDQ   $2, BX
	CMPQ   BX, DX
	JB     adamloop

adamtail:
	CMPQ BX, CX
	JAE  adamdone
	MOVSD (DI)(BX*8), X0
	MOVSD (SI)(BX*8), X1
	MOVSD X6, (DI)(BX*8)
	MULSD X8, X0
	MOVSD X1, X2
	MULSD X9, X2
	ADDSD X2, X0
	MOVSD (R8)(BX*8), X2
	MULSD X12, X2
	MOVSD X0, X3
	MULSD X13, X3
	ADDSD X3, X2
	MOVSD X2, (R8)(BX*8)
	MOVSD (R9)(BX*8), X3
	MULSD X14, X3
	MOVSD X0, X4
	MULSD X15, X4
	MULSD X0, X4
	ADDSD X4, X3
	MOVSD X3, (R9)(BX*8)
	SQRTSD X3, X3
	MULSD X11, X3
	ADDSD X7, X3
	MULSD X10, X2
	DIVSD X3, X2
	SUBSD X2, X1
	MOVSD X1, (SI)(BX*8)

adamdone:
	RET


// The gather kernels add xs[k]·(row idx[k] of m) into o for k = 0, 1, …,
// in order, one block of output columns at a time: the block's columns of
// o are loaded into registers, every term is added into them, and they
// are stored once, so each block reads every named row of m once and o
// once. Blocks run widest first, then narrower ones, then a scalar tail.
//
// Registers: DI o, CX len(o), SI xs, DX len(xs), R8 idx, R9 m, R10 the
// row stride len(o)·8, BX the block's first column, AX the column after
// it, R11 the term k, R13 &m[BX] and R12 that column of row idx[k].

// GATHER_ROW points R12 at column BX of row idx[k] of m.
#define GATHER_ROW \
	MOVLQSX (R8)(R11*4), R12; \
	IMULQ   R10, R12; \
	ADDQ    R13, R12

// SSE_TERM broadcasts xs[k] into both lanes of X8 and points R12 at the
// block in row idx[k]; SSE_ADD adds x·(two columns at off) into acc.
#define SSE_TERM \
	MOVSD    (SI)(R11*8), X8; \
	UNPCKLPD X8, X8; \
	GATHER_ROW

#define SSE_ADD(off, acc) \
	MOVUPD off(R12), X9; \
	MULPD  X8, X9; \
	ADDPD  X9, acc

// func gatherAxpySSE2(o, xs []float64, idx []int32, m []float64)
TEXT ·gatherAxpySSE2(SB), NOSPLIT, $0-96
	MOVQ  o_base+0(FP), DI
	MOVQ  o_len+8(FP), CX
	MOVQ  xs_base+24(FP), SI
	MOVQ  xs_len+32(FP), DX
	MOVQ  idx_base+48(FP), R8
	MOVQ  m_base+72(FP), R9
	TESTQ DX, DX
	JZ    ssedone
	MOVQ  CX, R10
	SHLQ  $3, R10
	XORQ  BX, BX

sse16: // 16 columns in X0-X7
	LEAQ   16(BX), AX
	CMPQ   AX, CX
	JGT    sse8
	MOVUPD 0(DI)(BX*8), X0
	MOVUPD 16(DI)(BX*8), X1
	MOVUPD 32(DI)(BX*8), X2
	MOVUPD 48(DI)(BX*8), X3
	MOVUPD 64(DI)(BX*8), X4
	MOVUPD 80(DI)(BX*8), X5
	MOVUPD 96(DI)(BX*8), X6
	MOVUPD 112(DI)(BX*8), X7
	LEAQ   (R9)(BX*8), R13
	XORQ   R11, R11

sse16term:
	SSE_TERM
	SSE_ADD(0, X0)
	SSE_ADD(16, X1)
	SSE_ADD(32, X2)
	SSE_ADD(48, X3)
	SSE_ADD(64, X4)
	SSE_ADD(80, X5)
	SSE_ADD(96, X6)
	SSE_ADD(112, X7)
	INCQ   R11
	CMPQ   R11, DX
	JB     sse16term
	MOVUPD X0, 0(DI)(BX*8)
	MOVUPD X1, 16(DI)(BX*8)
	MOVUPD X2, 32(DI)(BX*8)
	MOVUPD X3, 48(DI)(BX*8)
	MOVUPD X4, 64(DI)(BX*8)
	MOVUPD X5, 80(DI)(BX*8)
	MOVUPD X6, 96(DI)(BX*8)
	MOVUPD X7, 112(DI)(BX*8)
	MOVQ   AX, BX
	JMP    sse16

sse8: // 8 columns in X0-X3
	LEAQ   8(BX), AX
	CMPQ   AX, CX
	JGT    sse4
	MOVUPD 0(DI)(BX*8), X0
	MOVUPD 16(DI)(BX*8), X1
	MOVUPD 32(DI)(BX*8), X2
	MOVUPD 48(DI)(BX*8), X3
	LEAQ   (R9)(BX*8), R13
	XORQ   R11, R11

sse8term:
	SSE_TERM
	SSE_ADD(0, X0)
	SSE_ADD(16, X1)
	SSE_ADD(32, X2)
	SSE_ADD(48, X3)
	INCQ   R11
	CMPQ   R11, DX
	JB     sse8term
	MOVUPD X0, 0(DI)(BX*8)
	MOVUPD X1, 16(DI)(BX*8)
	MOVUPD X2, 32(DI)(BX*8)
	MOVUPD X3, 48(DI)(BX*8)
	MOVQ   AX, BX

sse4: // 4 columns in X0-X1
	LEAQ   4(BX), AX
	CMPQ   AX, CX
	JGT    sse2
	MOVUPD 0(DI)(BX*8), X0
	MOVUPD 16(DI)(BX*8), X1
	LEAQ   (R9)(BX*8), R13
	XORQ   R11, R11

sse4term:
	SSE_TERM
	SSE_ADD(0, X0)
	SSE_ADD(16, X1)
	INCQ   R11
	CMPQ   R11, DX
	JB     sse4term
	MOVUPD X0, 0(DI)(BX*8)
	MOVUPD X1, 16(DI)(BX*8)
	MOVQ   AX, BX

sse2: // 2 columns in X0
	LEAQ   2(BX), AX
	CMPQ   AX, CX
	JGT    sse1
	MOVUPD 0(DI)(BX*8), X0
	LEAQ   (R9)(BX*8), R13
	XORQ   R11, R11

sse2term:
	SSE_TERM
	SSE_ADD(0, X0)
	INCQ   R11
	CMPQ   R11, DX
	JB     sse2term
	MOVUPD X0, 0(DI)(BX*8)
	MOVQ   AX, BX

sse1: // the last column, if len(o) is odd
	CMPQ  BX, CX
	JAE   ssedone
	MOVSD (DI)(BX*8), X0
	LEAQ  (R9)(BX*8), R13
	XORQ  R11, R11

sse1term:
	GATHER_ROW
	MOVSD (R12), X9
	MULSD (SI)(R11*8), X9
	ADDSD X9, X0
	INCQ  R11
	CMPQ  R11, DX
	JB    sse1term
	MOVSD X0, (DI)(BX*8)

ssedone:
	RET

// AVX_TERM broadcasts xs[k] into the four lanes of Y8 and points R12 at
// the block in row idx[k]; AVX_ADD adds x·(four columns at off) into acc.
#define AVX_TERM \
	VBROADCASTSD (SI)(R11*8), Y8; \
	GATHER_ROW

#define AVX_ADD(off, acc) \
	VMULPD off(R12), Y8, Y9; \
	VADDPD Y9, acc, acc

// func gatherAxpyAVX2(o, xs []float64, idx []int32, m []float64)
TEXT ·gatherAxpyAVX2(SB), NOSPLIT, $0-96
	MOVQ  o_base+0(FP), DI
	MOVQ  o_len+8(FP), CX
	MOVQ  xs_base+24(FP), SI
	MOVQ  xs_len+32(FP), DX
	MOVQ  idx_base+48(FP), R8
	MOVQ  m_base+72(FP), R9
	TESTQ DX, DX
	JZ    avxdone
	MOVQ  CX, R10
	SHLQ  $3, R10
	XORQ  BX, BX

avx32: // 32 columns in Y0-Y7
	LEAQ    32(BX), AX
	CMPQ    AX, CX
	JGT     avx16
	VMOVUPD 0(DI)(BX*8), Y0
	VMOVUPD 32(DI)(BX*8), Y1
	VMOVUPD 64(DI)(BX*8), Y2
	VMOVUPD 96(DI)(BX*8), Y3
	VMOVUPD 128(DI)(BX*8), Y4
	VMOVUPD 160(DI)(BX*8), Y5
	VMOVUPD 192(DI)(BX*8), Y6
	VMOVUPD 224(DI)(BX*8), Y7
	LEAQ    (R9)(BX*8), R13
	XORQ    R11, R11

avx32term:
	AVX_TERM
	AVX_ADD(0, Y0)
	AVX_ADD(32, Y1)
	AVX_ADD(64, Y2)
	AVX_ADD(96, Y3)
	AVX_ADD(128, Y4)
	AVX_ADD(160, Y5)
	AVX_ADD(192, Y6)
	AVX_ADD(224, Y7)
	INCQ    R11
	CMPQ    R11, DX
	JB      avx32term
	VMOVUPD Y0, 0(DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	VMOVUPD Y2, 64(DI)(BX*8)
	VMOVUPD Y3, 96(DI)(BX*8)
	VMOVUPD Y4, 128(DI)(BX*8)
	VMOVUPD Y5, 160(DI)(BX*8)
	VMOVUPD Y6, 192(DI)(BX*8)
	VMOVUPD Y7, 224(DI)(BX*8)
	MOVQ    AX, BX
	JMP     avx32

avx16: // 16 columns in Y0-Y3
	LEAQ    16(BX), AX
	CMPQ    AX, CX
	JGT     avx8
	VMOVUPD 0(DI)(BX*8), Y0
	VMOVUPD 32(DI)(BX*8), Y1
	VMOVUPD 64(DI)(BX*8), Y2
	VMOVUPD 96(DI)(BX*8), Y3
	LEAQ    (R9)(BX*8), R13
	XORQ    R11, R11

avx16term:
	AVX_TERM
	AVX_ADD(0, Y0)
	AVX_ADD(32, Y1)
	AVX_ADD(64, Y2)
	AVX_ADD(96, Y3)
	INCQ    R11
	CMPQ    R11, DX
	JB      avx16term
	VMOVUPD Y0, 0(DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	VMOVUPD Y2, 64(DI)(BX*8)
	VMOVUPD Y3, 96(DI)(BX*8)
	MOVQ    AX, BX

avx8: // 8 columns in Y0-Y1
	LEAQ    8(BX), AX
	CMPQ    AX, CX
	JGT     avx4
	VMOVUPD 0(DI)(BX*8), Y0
	VMOVUPD 32(DI)(BX*8), Y1
	LEAQ    (R9)(BX*8), R13
	XORQ    R11, R11

avx8term:
	AVX_TERM
	AVX_ADD(0, Y0)
	AVX_ADD(32, Y1)
	INCQ    R11
	CMPQ    R11, DX
	JB      avx8term
	VMOVUPD Y0, 0(DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	MOVQ    AX, BX

avx4: // 4 columns in Y0
	LEAQ    4(BX), AX
	CMPQ    AX, CX
	JGT     avx2
	VMOVUPD 0(DI)(BX*8), Y0
	LEAQ    (R9)(BX*8), R13
	XORQ    R11, R11

avx4term:
	AVX_TERM
	AVX_ADD(0, Y0)
	INCQ    R11
	CMPQ    R11, DX
	JB      avx4term
	VMOVUPD Y0, 0(DI)(BX*8)
	MOVQ    AX, BX

avx2: // 2 columns in X0, the low half of Y0
	LEAQ    2(BX), AX
	CMPQ    AX, CX
	JGT     avx1
	VMOVUPD 0(DI)(BX*8), X0
	LEAQ    (R9)(BX*8), R13
	XORQ    R11, R11

avx2term:
	AVX_TERM
	VMULPD  (R12), X8, X9
	VADDPD  X9, X0, X0
	INCQ    R11
	CMPQ    R11, DX
	JB      avx2term
	VMOVUPD X0, 0(DI)(BX*8)
	MOVQ    AX, BX

avx1: // the last column, if len(o) is odd
	CMPQ   BX, CX
	JAE    avxdone
	VMOVSD (DI)(BX*8), X0
	LEAQ   (R9)(BX*8), R13
	XORQ   R11, R11

avx1term:
	GATHER_ROW
	VMOVSD (R12), X9
	VMULSD (SI)(R11*8), X9, X9
	VADDSD X9, X0, X0
	INCQ   R11
	CMPQ   R11, DX
	JB     avx1term
	VMOVSD X0, (DI)(BX*8)

avxdone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
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
