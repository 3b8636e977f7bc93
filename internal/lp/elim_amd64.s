#include "textflag.h"

// func elimRows(t [][]float64, xB []float64, r, k int, dv float64)
//
// For every row i != r whose slot-k entry f is nonzero (f != 0 as Go
// tests it: ±0 skips the row, NaN does not): xB[i] −= f·dv, then
// row[j] −= f·pr[j] over all len(pr) slots, eight cells per iteration in
// four MULPD/SUBPD pairs, then pairs, then one scalar cell. row[k] is
// written last as 0 − f·pr[k], the value Go's row[k] = 0 before the
// update gives; the vector loop's value there is discarded. SSE2 only:
// it is the amd64 baseline, and MULPD then SUBPD rounds the product as
// Go's unfused loop does. Each product takes pr[j] (or dv) as its first
// operand and each difference the cell, as Go's compiled loop does, so
// even a NaN result carries the same payload.
//
// SI &t[i] (row-header cursor)  R11 i  CX len(t)  DI &xB[0]
// R8 r  R9 k  BX &pr[0]  DX len(pr)  R10 len(pr) &^ 7  R12 &row[0]  AX j
// X0 f  X3 {f, f}  X12 dv  X13 +0
TEXT ·elimRows(SB), NOSPLIT, $0-72
	MOVQ  t_base+0(FP), SI
	MOVQ  t_len+8(FP), CX
	MOVQ  xB_base+24(FP), DI
	MOVQ  r+48(FP), R8
	MOVQ  k+56(FP), R9
	MOVSD dv+64(FP), X12
	XORPS X13, X13

	// pr = t[r]: slice headers are 24 bytes.
	LEAQ (R8)(R8*2), AX
	MOVQ (SI)(AX*8), BX
	MOVQ 8(SI)(AX*8), DX
	MOVQ DX, R10
	ANDQ $-8, R10
	XORQ R11, R11

row:
	CMPQ    R11, CX
	JGE     done
	CMPQ    R11, R8
	JEQ     next
	MOVQ    (SI), R12
	MOVSD   (R12)(R9*8), X0
	UCOMISD X13, X0
	JPS     elim
	JEQ     next

elim:
	// xB[i] −= dv·f
	MOVAPD X12, X2
	MULSD  X0, X2
	MOVSD  (DI)(R11*8), X1
	SUBSD  X2, X1
	MOVSD  X1, (DI)(R11*8)

	MOVAPD   X0, X3
	UNPCKLPD X3, X3
	XORQ     AX, AX
	CMPQ     AX, R10
	JGE      pairs

loop8:
	MOVUPD (BX)(AX*8), X4
	MOVUPD 16(BX)(AX*8), X5
	MOVUPD 32(BX)(AX*8), X6
	MOVUPD 48(BX)(AX*8), X7
	MULPD  X3, X4
	MULPD  X3, X5
	MULPD  X3, X6
	MULPD  X3, X7
	MOVUPD (R12)(AX*8), X8
	MOVUPD 16(R12)(AX*8), X9
	MOVUPD 32(R12)(AX*8), X10
	MOVUPD 48(R12)(AX*8), X11
	SUBPD  X4, X8
	SUBPD  X5, X9
	SUBPD  X6, X10
	SUBPD  X7, X11
	MOVUPD X8, (R12)(AX*8)
	MOVUPD X9, 16(R12)(AX*8)
	MOVUPD X10, 32(R12)(AX*8)
	MOVUPD X11, 48(R12)(AX*8)
	ADDQ   $8, AX
	CMPQ   AX, R10
	JLT    loop8

pairs:
	LEAQ   1(AX), R13
	CMPQ   R13, DX
	JGE    tail
	MOVUPD (BX)(AX*8), X4
	MULPD  X3, X4
	MOVUPD (R12)(AX*8), X8
	SUBPD  X4, X8
	MOVUPD X8, (R12)(AX*8)
	ADDQ   $2, AX
	JMP    pairs

tail:
	CMPQ  AX, DX
	JGE   fixk
	MOVSD (BX)(AX*8), X4
	MULSD X0, X4
	MOVSD (R12)(AX*8), X8
	SUBSD X4, X8
	MOVSD X8, (R12)(AX*8)

fixk:
	MOVSD (BX)(R9*8), X4
	MULSD X0, X4
	XORPS X8, X8
	SUBSD X4, X8
	MOVSD X8, (R12)(R9*8)

next:
	ADDQ $24, SI
	INCQ R11
	JMP  row

done:
	RET
