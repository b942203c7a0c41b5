#include "textflag.h"

// The kernels use SSE2 only, which every amd64 machine has. Each lane of a
// packed instruction does exactly the scalar operation of the Go loops in
// kernels_generic.go, in their order and with no fused multiply-add, so
// every result is bit-identical to theirs.

// func mulRow(o, b []float64, ks []int, vs []float64)
TEXT ·mulRow(SB), NOSPLIT, $0-96
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), R11
	MOVQ b_base+24(FP), SI
	MOVQ ks_base+48(FP), R8
	MOVQ ks_len+56(FP), R9
	MOVQ vs_base+72(FP), R10
	SHLQ $3, R11             // R11: bytes in a row
	MOVQ R11, CX
	ANDQ $-16, CX            // CX: bytes in the row's whole pairs

quad:
	CMPQ R9, $4
	JLT  single

	// R12, R13, BX, DX: the four rows of b; X0-X3: their a_ik in both lanes.
	MOVQ  0(R8), AX
	IMULQ R11, AX
	LEAQ  (SI)(AX*1), R12
	MOVQ  8(R8), AX
	IMULQ R11, AX
	LEAQ  (SI)(AX*1), R13
	MOVQ  16(R8), AX
	IMULQ R11, AX
	LEAQ  (SI)(AX*1), BX
	MOVQ  24(R8), AX
	IMULQ R11, AX
	LEAQ  (SI)(AX*1), DX
	MOVSD 0(R10), X0
	UNPCKLPD X0, X0
	MOVSD 8(R10), X1
	UNPCKLPD X1, X1
	MOVSD 16(R10), X2
	UNPCKLPD X2, X2
	MOVSD 24(R10), X3
	UNPCKLPD X3, X3

	XORQ AX, AX

quadpairs:
	CMPQ   AX, CX
	JGE    quadodd
	MOVUPD (DI)(AX*1), X4
	MOVUPD (R12)(AX*1), X5
	MULPD  X0, X5
	ADDPD  X5, X4
	MOVUPD (R13)(AX*1), X6
	MULPD  X1, X6
	ADDPD  X6, X4
	MOVUPD (BX)(AX*1), X7
	MULPD  X2, X7
	ADDPD  X7, X4
	MOVUPD (DX)(AX*1), X8
	MULPD  X3, X8
	ADDPD  X8, X4
	MOVUPD X4, (DI)(AX*1)
	ADDQ   $16, AX
	JMP    quadpairs

quadodd:
	CMPQ  CX, R11
	JEQ   quadnext
	MOVSD (DI)(CX*1), X4
	MOVSD (R12)(CX*1), X5
	MULSD X0, X5
	ADDSD X5, X4
	MOVSD (R13)(CX*1), X6
	MULSD X1, X6
	ADDSD X6, X4
	MOVSD (BX)(CX*1), X7
	MULSD X2, X7
	ADDSD X7, X4
	MOVSD (DX)(CX*1), X8
	MULSD X3, X8
	ADDSD X8, X4
	MOVSD X4, (DI)(CX*1)

quadnext:
	ADDQ $32, R8
	ADDQ $32, R10
	SUBQ $4, R9
	JMP  quad

single:
	TESTQ R9, R9
	JEQ   done
	MOVQ  0(R8), AX
	IMULQ R11, AX
	LEAQ  (SI)(AX*1), R12
	MOVSD 0(R10), X0
	UNPCKLPD X0, X0

	XORQ AX, AX

singlepairs:
	CMPQ   AX, CX
	JGE    singleodd
	MOVUPD (DI)(AX*1), X4
	MOVUPD (R12)(AX*1), X5
	MULPD  X0, X5
	ADDPD  X5, X4
	MOVUPD X4, (DI)(AX*1)
	ADDQ   $16, AX
	JMP    singlepairs

singleodd:
	CMPQ  CX, R11
	JEQ   singlenext
	MOVSD (DI)(CX*1), X4
	MOVSD (R12)(CX*1), X5
	MULSD X0, X5
	ADDSD X5, X4
	MOVSD X4, (DI)(CX*1)

singlenext:
	ADDQ $8, R8
	ADDQ $8, R10
	DECQ R9
	JMP  single

done:
	RET

// func adamStep(w, grad, m, v []float64, beta1, beta2, lr, eps, c1, c2 float64)
TEXT ·adamStep(SB), NOSPLIT, $0-144
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), R11
	MOVQ grad_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	SHLQ $3, R11             // R11: bytes in w
	MOVQ R11, CX
	ANDQ $-16, CX            // CX: bytes in w's whole pairs

	// Both lanes: X0 beta1, X1 1-beta1, X2 beta2, X3 1-beta2, X4 lr,
	// X5 eps, X6 c1, X7 c2.
	MOVSD beta1+96(FP), X0
	UNPCKLPD X0, X0
	MOVSD beta2+104(FP), X2
	UNPCKLPD X2, X2
	MOVQ  $0x3FF0000000000000, AX // 1.0
	MOVQ  AX, X1
	UNPCKLPD X1, X1
	MOVAPD X1, X3
	SUBPD X0, X1
	SUBPD X2, X3
	MOVSD lr+112(FP), X4
	UNPCKLPD X4, X4
	MOVSD eps+120(FP), X5
	UNPCKLPD X5, X5
	MOVSD c1+128(FP), X6
	UNPCKLPD X6, X6
	MOVSD c2+136(FP), X7
	UNPCKLPD X7, X7

	XORQ AX, AX

adampairs:
	CMPQ   AX, CX
	JGE    adamodd
	MOVUPD (SI)(AX*1), X8    // g
	MOVUPD (R8)(AX*1), X9
	MULPD  X0, X9            // beta1*m
	MOVAPD X1, X10
	MULPD  X8, X10           // (1-beta1)*g
	ADDPD  X10, X9           // m
	MOVUPD X9, (R8)(AX*1)
	MOVUPD (R9)(AX*1), X11
	MULPD  X2, X11           // beta2*v
	MOVAPD X3, X12
	MULPD  X8, X12
	MULPD  X8, X12           // (1-beta2)*g*g
	ADDPD  X12, X11          // v
	MOVUPD X11, (R9)(AX*1)
	DIVPD  X6, X9            // m/c1
	MULPD  X4, X9            // lr*(m/c1)
	DIVPD  X7, X11           // v/c2
	SQRTPD X11, X11
	ADDPD  X5, X11           // sqrt(v/c2)+eps
	DIVPD  X11, X9
	MOVUPD (DI)(AX*1), X13
	SUBPD  X9, X13
	MOVUPD X13, (DI)(AX*1)
	ADDQ   $16, AX
	JMP    adampairs

adamodd:
	CMPQ   CX, R11
	JEQ    adamdone
	MOVSD  (SI)(CX*1), X8
	MOVSD  (R8)(CX*1), X9
	MULSD  X0, X9
	MOVAPD X1, X10
	MULSD  X8, X10
	ADDSD  X10, X9
	MOVSD  X9, (R8)(CX*1)
	MOVSD  (R9)(CX*1), X11
	MULSD  X2, X11
	MOVAPD X3, X12
	MULSD  X8, X12
	MULSD  X8, X12
	ADDSD  X12, X11
	MOVSD  X11, (R9)(CX*1)
	DIVSD  X6, X9
	MULSD  X4, X9
	DIVSD  X7, X11
	SQRTSD X11, X11
	ADDSD  X5, X11
	DIVSD  X11, X9
	MOVSD  (DI)(CX*1), X13
	SUBSD  X9, X13
	MOVSD  X13, (DI)(CX*1)

adamdone:
	RET
