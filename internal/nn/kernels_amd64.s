#include "textflag.h"

// SSE2 versions of the loops in kernels.go, two float64 lanes per
// instruction with a scalar tail for an odd length. SSE2 is part of
// amd64's baseline, so no CPU-feature check guards them. Each lane applies
// the Go loop's operations in the Go loop's order, with no fused
// multiply-add (the Go compiler fuses only an explicit math.FMA on amd64),
// so every result rounds exactly as the Go loop's does.

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

// func axpy4(o []float64, x0, x1, x2, x3 float64, r0, r1, r2, r3 []float64)
TEXT ·axpy4(SB), NOSPLIT, $0-152
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ r0_base+56(FP), R8
	MOVQ r1_base+80(FP), R9
	MOVQ r2_base+104(FP), R10
	MOVQ r3_base+128(FP), R11
	MOVSD    x0+24(FP), X4
	UNPCKLPD X4, X4
	MOVSD    x1+32(FP), X5
	UNPCKLPD X5, X5
	MOVSD    x2+40(FP), X6
	UNPCKLPD X6, X6
	MOVSD    x3+48(FP), X7
	UNPCKLPD X7, X7

	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-2, DX
	JZ   axpy4tail

axpy4loop:
	MOVUPD (DI)(BX*8), X0
	MOVUPD (R8)(BX*8), X1
	MULPD  X4, X1
	ADDPD  X1, X0
	MOVUPD (R9)(BX*8), X1
	MULPD  X5, X1
	ADDPD  X1, X0
	MOVUPD (R10)(BX*8), X1
	MULPD  X6, X1
	ADDPD  X1, X0
	MOVUPD (R11)(BX*8), X1
	MULPD  X7, X1
	ADDPD  X1, X0
	MOVUPD X0, (DI)(BX*8)
	ADDQ   $2, BX
	CMPQ   BX, DX
	JB     axpy4loop

axpy4tail:
	CMPQ BX, CX
	JAE  axpy4done
	MOVSD (DI)(BX*8), X0
	MOVSD (R8)(BX*8), X1
	MULSD X4, X1
	ADDSD X1, X0
	MOVSD (R9)(BX*8), X1
	MULSD X5, X1
	ADDSD X1, X0
	MOVSD (R10)(BX*8), X1
	MULSD X6, X1
	ADDSD X1, X0
	MOVSD (R11)(BX*8), X1
	MULSD X7, X1
	ADDSD X1, X0
	MOVSD X0, (DI)(BX*8)

axpy4done:
	RET

// func axpy1(o []float64, x float64, r []float64)
TEXT ·axpy1(SB), NOSPLIT, $0-56
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ r_base+32(FP), R8
	MOVSD    x+24(FP), X4
	UNPCKLPD X4, X4

	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-2, DX
	JZ   axpy1tail

axpy1loop:
	MOVUPD (DI)(BX*8), X0
	MOVUPD (R8)(BX*8), X1
	MULPD  X4, X1
	ADDPD  X1, X0
	MOVUPD X0, (DI)(BX*8)
	ADDQ   $2, BX
	CMPQ   BX, DX
	JB     axpy1loop

axpy1tail:
	CMPQ BX, CX
	JAE  axpy1done
	MOVSD (DI)(BX*8), X0
	MOVSD (R8)(BX*8), X1
	MULSD X4, X1
	ADDSD X1, X0
	MOVSD X0, (DI)(BX*8)

axpy1done:
	RET
