#include "go_asm.h"
#include "textflag.h"

// The four-wide box kernels behind box_amd64.go, in the per-point order of
// sub5 and boxTable.pass: s −= v is VSUBPD, c·v a multiply then an add, no
// FMA, and the partial sums start from zero as the Go scratch does. The
// table fields come from go_asm.h: batch and split are slices, cc, toff
// and tc inline arrays. A nil iv skips the row scale.

// TERMS5 is one width-5 slice of a sub5 group for the block at p, the
// slice's offset in R10 and its middle coefficient in Y8: a −= d0,
// b −= d1, c += Y8·d2, d −= d3, a −= d4.
#define TERMS5(p, a, b, c, d) \
	VSUBPD -16(p)(R10*8), a, a; \
	VSUBPD -8(p)(R10*8), b, b;  \
	VMULPD (p)(R10*8), Y8, Y9;  \
	VADDPD Y9, c, c;            \
	VSUBPD 8(p)(R10*8), d, d;   \
	VSUBPD 16(p)(R10*8), a, a

// SUB2 subtracts the term at batch offset o (bytes into the batch at R12)
// from partial sum a of block A and b of block B.
#define SUB2(o, a, b) \
	MOVQ   o(R12), R10;        \
	VSUBPD (AX)(R10*8), a, a;  \
	VSUBPD (R13)(R10*8), b, b

// MULADD2 adds c·x at offset off into a (block A) and b (block B).
#define MULADD2(off, c, a, b) \
	MOVQ         off, R10;          \
	VBROADCASTSD c, Y8;             \
	VMULPD       (AX)(R10*8), Y8, Y9;  \
	VADDPD       Y9, a, a;          \
	VMULPD       (R13)(R10*8), Y8, Y10; \
	VADDPD       Y10, b, b

// SUM folds a block's partial sums into s0: ((s0+s1) + (s2+s3))·scale.
#define SUM(s0, s1, s2, s3) \
	VADDPD s1, s0, s0; \
	VADDPD s3, s2, s2; \
	VADDPD s2, s0, s0; \
	VMULPD Y11, s0, s0

// func boxRunAVX(out, x, iv *float64, sh *boxShape, t *boxTable, scale float64, n int)
//
// Two blocks of four points at a time, A at CX and B at BX, lane l of
// Y0–Y3 (A) and Y4–Y7 (B) holding partial sums s0–s3 of the block's
// point l: the two blocks' sums are independent chains, so their adds
// overlap. B is the block after A, or the run's last four points; when the
// run ends inside a pair, A and B overlap (or coincide) and write the
// shared points again with the same bits. A full width-5 group is the
// twenty terms of sub5, slice j's five x-neighbours at −2…2 around off[j]
// (only Box125's interior width is 5).
TEXT ·boxRunAVX(SB), NOSPLIT, $24-56
	MOVQ         out+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         iv+16(FP), DX
	MOVQ         sh+24(FP), R8
	MOVQ         t+32(FP), R11
	VBROADCASTSD scale+40(FP), Y11
	MOVQ         boxShape_cc(R8), R9
	MOVQ         boxShape_off(R8), R8
	SUBQ         R8, R9                  // group g's cc sit R9 bytes past its offsets
	MOVQ         boxTable_from(R11), R10
	LEAQ         (R8)(R10*8), R10
	MOVQ         R10, gend-8(SP)         // the end of the groups' offsets
	MOVQ         boxTable_batch(R11), R12
	MOVQ         boxTable_batch+8(R11), R10
	SHLQ         $5, R10
	ADDQ         R12, R10
	MOVQ         R10, bend-16(SP)        // the end of the batches
	MOVQ         boxTable_cb(R11), R14
	SHLQ         $5, R14
	ADDQ         R12, R14                // the centre batch; never reached for cb = −1
	MOVQ         n+48(FP), R10
	SUBQ         $4, R10
	MOVQ         R10, last-24(SP)        // the last block's start
	XORQ         CX, CX

runPair:
	LEAQ   4(CX), BX
	CMPQ   BX, last-24(SP)
	CMOVQGT last-24(SP), BX
	LEAQ   (SI)(CX*8), AX
	LEAQ   (SI)(BX*8), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   R8, R12
	CMPQ   R12, gend-8(SP)
	JGE    runTable

runGroup:
	MOVQ         (R12), R10
	VBROADCASTSD (R12)(R9*1), Y8
	TERMS5(AX, Y0, Y1, Y2, Y3)
	TERMS5(R13, Y4, Y5, Y6, Y7)
	MOVQ         8(R12), R10
	VBROADCASTSD 8(R12)(R9*1), Y8
	TERMS5(AX, Y1, Y2, Y3, Y0)
	TERMS5(R13, Y5, Y6, Y7, Y4)
	MOVQ         16(R12), R10
	VBROADCASTSD 16(R12)(R9*1), Y8
	TERMS5(AX, Y2, Y3, Y0, Y1)
	TERMS5(R13, Y6, Y7, Y4, Y5)
	MOVQ         24(R12), R10
	VBROADCASTSD 24(R12)(R9*1), Y8
	TERMS5(AX, Y3, Y0, Y1, Y2)
	TERMS5(R13, Y7, Y4, Y5, Y6)
	ADDQ         $32, R12
	CMPQ         R12, gend-8(SP)
	JLT          runGroup

runTable:
	MOVQ boxTable_batch(R11), R12
	CMPQ R12, bend-16(SP)
	JGE  runTail

runBatch:
	CMPQ R12, R14
	JEQ  runCentre
	SUB2(0, Y0, Y4)
	SUB2(8, Y1, Y5)
	SUB2(16, Y2, Y6)
	SUB2(24, Y3, Y7)
	JMP  runNext

runCentre:
	MULADD2((R12), boxTable_cc+0(R11), Y0, Y4)
	MULADD2(8(R12), boxTable_cc+8(R11), Y1, Y5)
	MULADD2(16(R12), boxTable_cc+16(R11), Y2, Y6)
	MULADD2(24(R12), boxTable_cc+24(R11), Y3, Y7)

runNext:
	ADDQ $32, R12
	CMPQ R12, bend-16(SP)
	JLT  runBatch

runTail:
	XORQ R12, R12
	CMPQ R12, boxTable_ntail(R11)
	JGE  runSum

runTailTerm:
	MULADD2(boxTable_toff(R11)(R12*8), boxTable_tc(R11)(R12*8), Y0, Y4)
	INCQ R12
	CMPQ R12, boxTable_ntail(R11)
	JLT  runTailTerm

runSum:
	SUM(Y0, Y1, Y2, Y3)
	SUM(Y4, Y5, Y6, Y7)
	TESTQ   DX, DX
	JZ      runStore
	VMULPD  (DX)(CX*8), Y0, Y0 // ·iv
	VMULPD  (DX)(BX*8), Y4, Y4

runStore:
	VMOVUPD Y0, (DI)(CX*8)
	VMOVUPD Y4, (DI)(BX*8)
	ADDQ    $8, CX
	CMPQ    CX, n+48(FP)
	JGE     runDone
	CMPQ    CX, last-24(SP)
	CMOVQGT last-24(SP), CX
	JMP     runPair

runDone:
	VZEROUPPER
	RET

// func boxPairAVX(out, x, iv *float64, ta, tb *boxTable, scale float64)
//
// Lane l of Y0 holds partial sum s_l of point A (x, ta) and of Y1 that of
// point B (x+1, tb). A batch's four terms are two contiguous loads blended
// (boxSplit); the two points' batches alternate so their adds overlap,
// each tail adds into lane 0, and both points fold at once as
// (s0+s1) + (s2+s3).
TEXT ·boxPairAVX(SB), NOSPLIT, $0-48
	MOVQ   x+8(FP), SI
	MOVQ   ta+24(FP), R8
	MOVQ   tb+32(FP), R9
	LEAQ   8(SI), R10      // point B
	MOVQ   boxTable_split(R8), R11
	MOVQ   boxTable_split+8(R8), R12
	IMULQ  $boxSplit__size, R12
	ADDQ   R11, R12        // A's batches [R11, R12), centre at R13
	MOVQ   boxTable_cb(R8), R13
	IMULQ  $boxSplit__size, R13
	ADDQ   R11, R13
	MOVQ   boxTable_split(R9), R14
	MOVQ   boxTable_split+8(R9), AX
	IMULQ  $boxSplit__size, AX
	ADDQ   R14, AX         // B's batches [R14, AX), centre at CX
	MOVQ   boxTable_cb(R9), CX
	IMULQ  $boxSplit__size, CX
	ADDQ   R14, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

pairBatch:
	CMPQ      R11, R12
	JGE       pairB
	MOVQ      boxSplit_at(R11), DX
	MOVQ      boxSplit_bt(R11), BX
	VMOVUPD   (SI)(DX*8), Y4
	VMOVDQU   boxSplit_m(R11), Y5
	VBLENDVPD Y5, (SI)(BX*8), Y4, Y4
	CMPQ      R11, R13
	JEQ       pairCentreA
	VSUBPD    Y4, Y0, Y0
	JMP       pairNextA

pairCentreA:
	VMULPD boxTable_cc(R8), Y4, Y4
	VADDPD Y4, Y0, Y0

pairNextA:
	ADDQ $boxSplit__size, R11

pairB:
	CMPQ      R14, AX
	JGE       pairMore
	MOVQ      boxSplit_at(R14), DX
	MOVQ      boxSplit_bt(R14), BX
	VMOVUPD   (R10)(DX*8), Y6
	VMOVDQU   boxSplit_m(R14), Y7
	VBLENDVPD Y7, (R10)(BX*8), Y6, Y6
	CMPQ      R14, CX
	JEQ       pairCentreB
	VSUBPD    Y6, Y1, Y1
	JMP       pairNextB

pairCentreB:
	VMULPD boxTable_cc(R9), Y6, Y6
	VADDPD Y6, Y1, Y1

pairNextB:
	ADDQ $boxSplit__size, R14

pairMore:
	CMPQ         R11, R12
	JLT          pairBatch
	CMPQ         R14, AX
	JLT          pairBatch
	VEXTRACTF128 $1, Y0, X2 // (a2, a3); X0 keeps (a0, a1)
	VEXTRACTF128 $1, Y1, X3 // (b2, b3); X1 keeps (b0, b1)
	XORQ         R11, R11

pairTailA:
	CMPQ   R11, boxTable_ntail(R8)
	JGE    pairTailsB
	MOVQ   boxTable_toff(R8)(R11*8), R12
	VMOVSD (SI)(R12*8), X4
	VMULSD boxTable_tc(R8)(R11*8), X4, X4
	VADDSD X4, X0, X0
	INCQ   R11
	JMP    pairTailA

pairTailsB:
	XORQ R11, R11

pairTailB:
	CMPQ   R11, boxTable_ntail(R9)
	JGE    pairSum
	MOVQ   boxTable_toff(R9)(R11*8), R12
	VMOVSD (R10)(R12*8), X4
	VMULSD boxTable_tc(R9)(R11*8), X4, X4
	VADDSD X4, X1, X1
	INCQ   R11
	JMP    pairTailB

pairSum:
	MOVQ     out+0(FP), DI
	MOVQ     iv+16(FP), DX
	VHADDPD  X1, X0, X0 // (a0+a1, b0+b1)
	VHADDPD  X3, X2, X2 // (a2+a3, b2+b3)
	VADDPD   X2, X0, X0
	VMOVDDUP scale+40(FP), X4
	VMULPD   X4, X0, X0
	TESTQ    DX, DX
	JZ       pairStore
	VMULPD   (DX), X0, X0 // ·iv

pairStore:
	VMOVUPD X0, (DI)
	VZEROUPPER
	RET
