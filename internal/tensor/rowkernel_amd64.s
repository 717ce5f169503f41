#include "textflag.h"

// AVX2 leaves of the row kernels (rowkernel.go). Each YMM lane carries one
// independent output cell through exactly the float64 operations the Go
// loops apply to it, in the same order: multiply and add are separate
// instructions everywhere except inside the exp replica, whose FMA sequence
// is math.archExp's own. None of these reads or writes a byte outside the
// operands its Go caller has bounds-checked.

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
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func addScaledBlocks(acc, coef []float64, rows *float64, stride int) int
//
// For every complete block of eight cells of acc, one cell per lane:
// acc[c] += Σ_i coef[i]·rows[i*stride+c], ascending i, skipping coef[i] == ±0
// as Go's `cv != 0` does (a NaN coefficient multiplies). Two blocks share a
// pass over coef while two are left, so four add chains are in flight rather
// than two. Returns how many cells it covered.
TEXT ·addScaledBlocks(SB), NOSPLIT, $0-72
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), BX
	MOVQ coef_base+24(FP), R9
	MOVQ coef_len+32(FP), R10
	MOVQ rows+48(FP), R11
	MOVQ stride+56(FP), R8
	SHLQ $3, R8
	ANDQ $~7, BX
	MOVQ BX, ret+64(FP)
	TESTQ R10, R10
	JZ   done
wide:
	CMPQ BX, $16
	JLT  narrow
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ R9, SI
	MOVQ R10, CX
	MOVQ R11, DX
loop16:
	MOVQ (SI), AX
	SHLQ $1, AX // sign shifted out: zero iff the coefficient is +0 or −0
	JZ   next16
	VBROADCASTSD (SI), Y4
	VMULPD (DX), Y4, Y5
	VMULPD 32(DX), Y4, Y6
	VMULPD 64(DX), Y4, Y7
	VMULPD 96(DX), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
next16:
	ADDQ $8, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  loop16
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R11
	SUBQ $16, BX
	JMP  wide
narrow:
	CMPQ BX, $8
	JLT  done
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
loop8:
	MOVQ (R9), AX
	SHLQ $1, AX
	JZ   next8
	VBROADCASTSD (R9), Y4
	VMULPD (R11), Y4, Y5
	VMULPD 32(R11), Y4, Y6
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
next8:
	ADDQ $8, R9
	ADDQ R8, R11
	DECQ R10
	JNZ  loop8
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
done:
	VZEROUPPER
	RET

// tailmask is eight all-ones lanes, then eight zero lanes: the 32 bytes at
// byte 8·(8 − r) are r ones then zeros, and the 32 after them the ones past
// the fourth — the lane masks of a block of r < 8 cells.
#define MASK4(off, v) \
	DATA tailmask<>+(off+0)(SB)/8, v; \
	DATA tailmask<>+(off+8)(SB)/8, v; \
	DATA tailmask<>+(off+16)(SB)/8, v; \
	DATA tailmask<>+(off+24)(SB)/8, v

MASK4(0, $-1)
MASK4(32, $-1)
MASK4(64, $0)
MASK4(96, $0)
GLOBL tailmask<>(SB), RODATA|NOPTR, $128

// TERM adds x[k]·rows[k][·] to the accumulator acc, the product masked to +0
// where x[k] is ±0 (Y9, all ones where the coefficient Y4 is not ±0): the
// zero-skip without a branch. It is the skip's bits because a sum that starts
// from +0 is never −0, and s + (+0) = s for every other s, NaN payload
// included.
#define TERM(prod, acc) \
	VANDPD Y9, prod, prod; \
	VADDPD prod, acc, acc

// COEF broadcasts the coefficient at SI into Y4 and its lane mask into Y9
// (VCMPPD not-equal, unordered true: a NaN coefficient multiplies, as Go's
// x[k] != 0 says).
#define COEF \
	VBROADCASTSD (SI), Y4; \
	VCMPPD $4, Y15, Y4, Y9

// func affineRowsLeaf(dst, x *float64, n, in, out int, rows *float64, stride int, bias *float64, relu, residual bool)
//
// n rows, one after another: dst and x hold them contiguously (out and in
// values a row), and every row runs against the same rows and bias. Every
// cell of a row, one cell per lane: dst[c] = Σ_k x[k]·rows[k*stride+c]
// summed from +0 (a zeroed register) in ascending k, skipping x[k] == ±0;
// then + bias[c] unless bias is nil; then, if residual, + the value dst[c]
// held on entry (read once, just before the block is stored); then, if relu,
// VMAXPD against +0 with the sum as the first operand, which keeps v where
// v > 0 and gives +0 otherwise (NaN and −0 included) — Go's !(v > 0). Blocks
// of 16 cells while 16 are left, then one of 8, then the last r < 8 through
// lane masks (VMASKMOVPD reads and writes no masked lane, so no byte past
// the row is touched). Each block of dst is stored once. n must be positive.
TEXT ·affineRowsLeaf(SB), NOSPLIT, $0-66
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), R9
	MOVQ in+24(FP), R10
	MOVQ stride+48(FP), R8
	MOVBQZX relu+64(FP), R13
	MOVBQZX residual+65(FP), AX
	SHLQ $1, AX
	ORQ  AX, R13 // bit 0 relu, bit 1 residual
	SHLQ $3, R8
	VXORPD Y15, Y15, Y15
row:
	MOVQ out+32(FP), BX
	MOVQ rows+40(FP), R11
	MOVQ bias+56(FP), R12
wide:
	CMPQ BX, $16
	JLT  narrow
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ R9, SI
	MOVQ R10, CX
	MOVQ R11, DX
	TESTQ CX, CX
	JZ   bias16
loop16:
	COEF
	VMULPD (DX), Y4, Y5
	VMULPD 32(DX), Y4, Y6
	VMULPD 64(DX), Y4, Y7
	VMULPD 96(DX), Y4, Y8
	TERM(Y5, Y0)
	TERM(Y6, Y1)
	TERM(Y7, Y2)
	TERM(Y8, Y3)
	ADDQ $8, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  loop16
bias16:
	TESTQ R12, R12
	JZ   res16
	VADDPD (R12), Y0, Y0
	VADDPD 32(R12), Y1, Y1
	VADDPD 64(R12), Y2, Y2
	VADDPD 96(R12), Y3, Y3
	ADDQ $128, R12
res16:
	TESTQ $2, R13
	JZ   relu16
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
	VADDPD 64(DI), Y2, Y2
	VADDPD 96(DI), Y3, Y3
relu16:
	TESTQ $1, R13
	JZ   store16
	VMAXPD Y15, Y0, Y0
	VMAXPD Y15, Y1, Y1
	VMAXPD Y15, Y2, Y2
	VMAXPD Y15, Y3, Y3
store16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R11
	SUBQ $16, BX
	JMP  wide
narrow:
	CMPQ BX, $8
	JLT  tail
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ R9, SI
	MOVQ R10, CX
	MOVQ R11, DX
	TESTQ CX, CX
	JZ   bias8
loop8:
	COEF
	VMULPD (DX), Y4, Y5
	VMULPD 32(DX), Y4, Y6
	TERM(Y5, Y0)
	TERM(Y6, Y1)
	ADDQ $8, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  loop8
bias8:
	TESTQ R12, R12
	JZ   res8
	VADDPD (R12), Y0, Y0
	VADDPD 32(R12), Y1, Y1
	ADDQ $64, R12
res8:
	TESTQ $2, R13
	JZ   relu8
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
relu8:
	TESTQ $1, R13
	JZ   store8
	VMAXPD Y15, Y0, Y0
	VMAXPD Y15, Y1, Y1
store8:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, R11
	SUBQ $8, BX
tail:
	TESTQ BX, BX
	JZ   nextrow
	MOVQ $8, AX
	SUBQ BX, AX
	LEAQ tailmask<>(SB), CX
	VMOVUPD (CX)(AX*8), Y10
	VMOVUPD 32(CX)(AX*8), Y11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ R9, SI
	MOVQ R10, CX
	MOVQ R11, DX
	TESTQ CX, CX
	JZ   biast
loopt:
	COEF
	VMASKMOVPD (DX), Y10, Y5
	VMASKMOVPD 32(DX), Y11, Y6
	VMULPD Y5, Y4, Y5
	VMULPD Y6, Y4, Y6
	TERM(Y5, Y0)
	TERM(Y6, Y1)
	ADDQ $8, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  loopt
biast:
	TESTQ R12, R12
	JZ   rest
	VMASKMOVPD (R12), Y10, Y5
	VMASKMOVPD 32(R12), Y11, Y6
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
rest:
	TESTQ $2, R13
	JZ   relut
	VMASKMOVPD (DI), Y10, Y5
	VMASKMOVPD 32(DI), Y11, Y6
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
relut:
	TESTQ $1, R13
	JZ   storet
	VMAXPD Y15, Y0, Y0
	VMAXPD Y15, Y1, Y1
storet:
	VMASKMOVPD Y0, Y10, (DI)
	VMASKMOVPD Y1, Y11, 32(DI)
	LEAQ (DI)(BX*8), DI
nextrow:
	LEAQ (R9)(R10*8), R9
	DECQ n+16(FP)
	JNZ  row
	VZEROUPPER
	RET

// func dotColsLeaf(dst, q []float64, cols *float64, stride int, scale float64)
//
// Every cell of dst, one column per lane: dst[j] = scale·Σ_c q[c]·cols[c*stride+j]
// summed from +0 in ascending c with no zero-skip (VMULPD then VADDPD), the
// scale multiplied after the sum. len(q) must be positive. Blocks of 16
// columns while 16 are left, then one of 8, then the last r < 8 through lane
// masks, as affineRowLeaf does.
TEXT ·dotColsLeaf(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), BX
	MOVQ q_base+24(FP), R9
	MOVQ q_len+32(FP), R10
	MOVQ cols+48(FP), R11
	MOVQ stride+56(FP), R8
	VBROADCASTSD scale+64(FP), Y15
	SHLQ $3, R8
wide:
	CMPQ BX, $16
	JLT  narrow
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ R9, SI
	MOVQ R10, CX
	MOVQ R11, DX
loop16:
	VBROADCASTSD (SI), Y4
	VMULPD (DX), Y4, Y5
	VMULPD 32(DX), Y4, Y6
	VMULPD 64(DX), Y4, Y7
	VMULPD 96(DX), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $8, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  loop16
	VMULPD Y15, Y0, Y0
	VMULPD Y15, Y1, Y1
	VMULPD Y15, Y2, Y2
	VMULPD Y15, Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R11
	SUBQ $16, BX
	JMP  wide
narrow:
	CMPQ BX, $8
	JLT  tail
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ R9, SI
	MOVQ R10, CX
	MOVQ R11, DX
loop8:
	VBROADCASTSD (SI), Y4
	VMULPD (DX), Y4, Y5
	VMULPD 32(DX), Y4, Y6
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	ADDQ $8, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  loop8
	VMULPD Y15, Y0, Y0
	VMULPD Y15, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, R11
	SUBQ $8, BX
tail:
	TESTQ BX, BX
	JZ   done
	MOVQ $8, AX
	SUBQ BX, AX
	LEAQ tailmask<>(SB), CX
	VMOVUPD (CX)(AX*8), Y10
	VMOVUPD 32(CX)(AX*8), Y11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ R9, SI
	MOVQ R10, CX
	MOVQ R11, DX
loopt:
	VBROADCASTSD (SI), Y4
	VMASKMOVPD (DX), Y10, Y5
	VMASKMOVPD 32(DX), Y11, Y6
	VMULPD Y5, Y4, Y5
	VMULPD Y6, Y4, Y6
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	ADDQ $8, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  loopt
	VMULPD Y15, Y0, Y0
	VMULPD Y15, Y1, Y1
	VMASKMOVPD Y0, Y10, (DI)
	VMASKMOVPD Y1, Y11, 32(DI)
done:
	VZEROUPPER
	RET

// DOT4 adds dimensions AX/8 … AX/8+3 of the dot products of four rows, one
// row per lane, to sum: sum += q[c]·row[c] for the four c in ascending
// order, with q[c] broadcast in Y12–Y15. The rows are base, base+R8,
// base+2·R8 and base+R10 (R10 = 3·R8). Their 4×4 block is transposed on the
// way in — the loads pair the 128-bit halves, so only the four unpacks
// shuffle — leaving each dimension of the four rows in one register.
// Clobbers Y0–Y7; base is restored.
#define DOT4(base, sum) \
	VMOVUPD (base)(AX*1), X0; \
	VMOVUPD 16(base)(AX*1), X2; \
	ADDQ R8, base; \
	VMOVUPD (base)(AX*1), X1; \
	VMOVUPD 16(base)(AX*1), X3; \
	ADDQ R8, base; \
	VINSERTF128 $1, (base)(AX*1), Y0, Y0; \
	VINSERTF128 $1, 16(base)(AX*1), Y2, Y2; \
	ADDQ R8, base; \
	VINSERTF128 $1, (base)(AX*1), Y1, Y1; \
	VINSERTF128 $1, 16(base)(AX*1), Y3, Y3; \
	SUBQ R10, base; \
	VUNPCKLPD Y1, Y0, Y4; \
	VUNPCKHPD Y1, Y0, Y5; \
	VUNPCKLPD Y3, Y2, Y6; \
	VUNPCKHPD Y3, Y2, Y7; \
	VMULPD Y4, Y12, Y4; \
	VMULPD Y5, Y13, Y5; \
	VMULPD Y6, Y14, Y6; \
	VMULPD Y7, Y15, Y7; \
	VADDPD Y4, sum, sum; \
	VADDPD Y5, sum, sum; \
	VADDPD Y6, sum, sum; \
	VADDPD Y7, sum, sum

#define BROADCASTQ4 \
	VBROADCASTSD (SI)(AX*1), Y12; \
	VBROADCASTSD 8(SI)(AX*1), Y13; \
	VBROADCASTSD 16(SI)(AX*1), Y14; \
	VBROADCASTSD 24(SI)(AX*1), Y15

// func dotRows4(dst, q []float64, rows *float64, stride int, scale float64) int
//
// dst[i] = scale·(q · row i) for every complete group of four rows, one row
// per lane: every lane sums q[c]·row[c] from zero in ascending c and is
// scaled afterwards, as the Go loop does. len(q) must be a positive multiple
// of four. Returns how many cells it has written.
TEXT ·dotRows4(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ q_base+24(FP), SI
	MOVQ q_len+32(FP), R9
	MOVQ rows+48(FP), DX
	MOVQ stride+56(FP), R8
	SHLQ $3, R8
	SHLQ $3, R9
	ANDQ $~3, CX
	MOVQ CX, ret+72(FP)
	LEAQ (R8)(R8*2), R10
	// Eight rows a pass while eight are left: two independent add chains.
pair:
	CMPQ CX, $8
	JLT  group
	LEAQ (DX)(R8*4), BX
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	XORQ AX, AX
pairdims:
	BROADCASTQ4
	DOT4(DX, Y8)
	DOT4(BX, Y9)
	ADDQ $32, AX
	CMPQ AX, R9
	JLT  pairdims
	VBROADCASTSD scale+64(FP), Y15
	VMULPD Y15, Y8, Y8
	VMULPD Y15, Y9, Y9
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	ADDQ $64, DI
	LEAQ (BX)(R8*4), DX
	SUBQ $8, CX
	JMP  pair
group:
	CMPQ CX, $4
	JLT  done
	VXORPD Y8, Y8, Y8
	XORQ AX, AX
dims:
	BROADCASTQ4
	DOT4(DX, Y8)
	ADDQ $32, AX
	CMPQ AX, R9
	JLT  dims
	VBROADCASTSD scale+64(FP), Y15
	VMULPD Y15, Y8, Y8
	VMOVUPD Y8, (DI)
done:
	VZEROUPPER
	RET

// The constants of math.archExp (exp_amd64.s, after SLEEF), each four lanes
// wide so it can be a memory operand. The decimal literals are the ones
// archExp is assembled from; the init-time self-check compares the results.
#define LANES4(off, v) \
	DATA expconst<>+(off+0)(SB)/8, v; \
	DATA expconst<>+(off+8)(SB)/8, v; \
	DATA expconst<>+(off+16)(SB)/8, v; \
	DATA expconst<>+(off+24)(SB)/8, v

#define LOG2E  0
#define LN2U   32
#define LN2L   64
#define SIXTEENTH 96
#define C8     128
#define C7     160
#define C6     192
#define C5     224
#define C4     256
#define C3     288
#define HALF   320
#define ONE    352
#define TWO    384
#define EXPMIN 416
#define BIAS   448

LANES4(LOG2E, $1.4426950408889634073599246810018920)
LANES4(LN2U, $0.69314718055966295651160180568695068359375)
LANES4(LN2L, $0.28235290563031577122588448175013436025525412068e-12)
LANES4(SIXTEENTH, $0.0625)
LANES4(C8, $2.4801587301587301587e-5)
LANES4(C7, $1.9841269841269841270e-4)
LANES4(C6, $1.3888888888888888889e-3)
LANES4(C5, $8.3333333333333333333e-3)
LANES4(C4, $4.1666666666666666667e-2)
LANES4(C3, $1.6666666666666666667e-1)
LANES4(HALF, $0.5)
LANES4(ONE, $1.0)
LANES4(TWO, $2.0)
LANES4(EXPMIN, $-708.0)
DATA expconst<>+(BIAS+0)(SB)/4, $0x3FF
DATA expconst<>+(BIAS+4)(SB)/4, $0x3FF
DATA expconst<>+(BIAS+8)(SB)/4, $0x3FF
DATA expconst<>+(BIAS+12)(SB)/4, $0x3FF
GLOBL expconst<>(SB), RODATA|NOPTR, $464

// EXP4 replaces each lane x of Y0 by exp(x) as math.archExp's FMA path
// computes it, for x in [−708, 0]: n = round(x·log2 e); x −= n·ln 2 in two
// fused parts; x /= 16; a Taylor series by Horner, seven fused steps; the
// /16 undone by y ← y·(y + 2) four times, the last with its + 1 fused; then
// · 2ⁿ, whose exponent field n + 1023 ≥ 2 is normal in this range.
// Clobbers Y1 and Y2.
#define EXP4 \
	VMULPD expconst<>+LOG2E(SB), Y0, Y1; \
	VCVTPD2DQY Y1, X2; \
	VCVTDQ2PD X2, Y1; \
	VFNMADD231PD expconst<>+LN2U(SB), Y1, Y0; \
	VFNMADD231PD expconst<>+LN2L(SB), Y1, Y0; \
	VMULPD expconst<>+SIXTEENTH(SB), Y0, Y0; \
	VMOVUPD expconst<>+C8(SB), Y1; \
	VFMADD213PD expconst<>+C7(SB), Y0, Y1; \
	VFMADD213PD expconst<>+C6(SB), Y0, Y1; \
	VFMADD213PD expconst<>+C5(SB), Y0, Y1; \
	VFMADD213PD expconst<>+C4(SB), Y0, Y1; \
	VFMADD213PD expconst<>+C3(SB), Y0, Y1; \
	VFMADD213PD expconst<>+HALF(SB), Y0, Y1; \
	VFMADD213PD expconst<>+ONE(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expconst<>+TWO(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expconst<>+TWO(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expconst<>+TWO(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expconst<>+TWO(SB), Y0, Y1; \
	VFMADD213PD expconst<>+ONE(SB), Y1, Y0; \
	VPADDD expconst<>+BIAS(SB), X2, X2; \
	VPMOVZXDQ X2, Y2; \
	VPSLLQ $52, Y2, Y2; \
	VMULPD Y2, Y0, Y0

// func softmaxRows4(p []float64) (mx, sum float64, n int)
//
// The softmax of p in place, as far as the packed exp reaches:
//  1. mx = the greatest p[j] by >, from −Inf, so NaN is never chosen: four
//     running lanes over the whole groups, the lanes against each other,
//     then the cells past the last whole group. In any order that is the
//     same value, except the sign of a zero maximum, and exp(s − (+0)) and
//     exp(s − (−0)) are the same bits for every s.
//  2. p[j] = exp(p[j] − mx) four at a time from j = 0 (EXP4), stopping
//     before the first group of four that is incomplete or holds a lane
//     whose p[j] − mx is outside [−708, 0] (NaN included) — the range in
//     which archExp takes neither its non-finite, overflow nor denormal
//     exits.
//  3. sum = those exponentials added to +0 in ascending j. A pass of its
//     own: interleaved with step 2, its chain of dependent adds holds back
//     the independent exponentials of the groups behind it.
//  4. If step 2 took every cell, p[j] /= sum for all j (VDIVPD).
//
// n is how many cells step 2 wrote; the caller finishes and divides when n
// is short of len(p).
TEXT ·softmaxRows4(SB), NOSPLIT, $0-48
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ $0xFFF0000000000000, AX // −Inf
	MOVQ AX, X8
	VBROADCASTSD X8, Y8
	MOVQ CX, DX
	ANDQ $~3, DX
	XORQ BX, BX
	JMP  maxtest
maxgroup:
	VMOVUPD (DI)(BX*8), Y0
	VMAXPD Y8, Y0, Y8 // per lane: s > mx ? s : mx
	ADDQ $4, BX
maxtest:
	CMPQ BX, DX
	JLT  maxgroup
	VEXTRACTF128 $1, Y8, X9
	VMAXPD X9, X8, X8
	VPERMILPD $1, X8, X9
	VMAXSD X9, X8, X8
maxtail:
	CMPQ BX, CX
	JGE  exp
	VMOVSD (DI)(BX*8), X0
	VMAXSD X8, X0, X8
	INCQ BX
	JMP  maxtail
exp:
	VMOVSD X8, mx+24(FP)
	VBROADCASTSD X8, Y15
	VXORPD Y14, Y14, Y14
	VXORPD X13, X13, X13
	XORQ BX, BX
	MOVQ CX, DX
	SUBQ $4, DX
	JLT  expdone
group:
	VMOVUPD (DI)(BX*8), Y0
	VSUBPD Y15, Y0, Y0
	VCMPPD $0x1D, expconst<>+EXPMIN(SB), Y0, Y1 // x >= −708, ordered
	VCMPPD $0x12, Y14, Y0, Y2                   // x <= 0, ordered
	VANDPD Y1, Y2, Y1
	VMOVMSKPD Y1, AX
	CMPL AX, $0xF
	JNE  expdone
	EXP4
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, DX
	JLE  group
expdone:
	XORQ DX, DX
	JMP  sumtest
sumcell:
	VADDSD (DI)(DX*8), X13, X13
	INCQ DX
sumtest:
	CMPQ DX, BX
	JLT  sumcell
	VMOVSD X13, sum+32(FP)
	MOVQ BX, n+40(FP)
	CMPQ BX, CX
	JNE  done
	VBROADCASTSD X13, Y1
	XORQ BX, BX
	JMP  divtest
divgroup:
	VMOVUPD (DI)(BX*8), Y0
	VDIVPD Y1, Y0, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ $4, BX
divtest:
	CMPQ BX, CX
	JLT  divgroup
done:
	VZEROUPPER
	RET

// The constants of math.archLog (log_amd64.s), four lanes wide, with its
// decimal literals; the init-time self-check compares the results.
#define LOGLANES4(off, v) \
	DATA logconst<>+(off+0)(SB)/8, v; \
	DATA logconst<>+(off+8)(SB)/8, v; \
	DATA logconst<>+(off+16)(SB)/8, v; \
	DATA logconst<>+(off+24)(SB)/8, v

#define LG_MINNORM 0
#define LG_POSINF  32
#define LG_TWO52   64
#define LG_TWO52K  96
#define LG_MANT    128
#define LG_HALF    160
#define LG_HSQRT2  192
#define LG_ONE     224
#define LG_TWO     256
#define LG_L1      288
#define LG_L2      320
#define LG_L3      352
#define LG_L4      384
#define LG_L5      416
#define LG_L6      448
#define LG_L7      480
#define LG_LN2HI   512
#define LG_LN2LO   544

LOGLANES4(LG_MINNORM, $0x0010000000000000) // 2⁻¹⁰²², the least normal
LOGLANES4(LG_POSINF, $0x7FF0000000000000)
LOGLANES4(LG_TWO52, $0x4330000000000000)   // 2⁵²
LOGLANES4(LG_TWO52K, $0x43300000000003FE)  // 2⁵² + 1022
LOGLANES4(LG_MANT, $0x000FFFFFFFFFFFFF)
LOGLANES4(LG_HALF, $0.5)
LOGLANES4(LG_HSQRT2, $7.07106781186547524401e-01)
LOGLANES4(LG_ONE, $1.0)
LOGLANES4(LG_TWO, $2.0)
LOGLANES4(LG_L1, $6.666666666666735130e-01)
LOGLANES4(LG_L2, $3.999999999940941908e-01)
LOGLANES4(LG_L3, $2.857142874366239149e-01)
LOGLANES4(LG_L4, $2.222219843214978396e-01)
LOGLANES4(LG_L5, $1.818357216161805012e-01)
LOGLANES4(LG_L6, $1.531383769920937332e-01)
LOGLANES4(LG_L7, $1.479819860511658591e-01)
LOGLANES4(LG_LN2HI, $6.93147180369123816490e-01)
LOGLANES4(LG_LN2LO, $1.90821492927058770002e-10)
GLOBL logconst<>(SB), RODATA|NOPTR, $576

// func logRows4(p []float64) int
//
// p[j] = log(p[j]) four at a time from j = 0, as math.archLog computes it
// lane for lane: the same reduction, polynomial and literals, a divide, and
// separate multiply and add throughout. Stops before the first group of four
// that is incomplete or holds a lane that is not a finite, positive, normal
// number — ±0, negatives, subnormals, +Inf and NaN take archLog's other
// exits, or a frexp its bit trick does not compute — and returns how many
// cells it has written.
TEXT ·logRows4(SB), NOSPLIT, $0-32
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	XORQ BX, BX
	SUBQ $4, CX
	JLT  done
group:
	VMOVUPD (DI)(BX*8), Y0
	VCMPPD $0x1D, logconst<>+LG_MINNORM(SB), Y0, Y1 // x >= 2⁻¹⁰²², ordered
	VCMPPD $0x11, logconst<>+LG_POSINF(SB), Y0, Y2  // x < +Inf, ordered
	VANDPD Y1, Y2, Y1
	VMOVMSKPD Y1, AX
	CMPL AX, $0xF
	JNE  done
	// k = exponent field − 1022 as a float64, exactly: the field becomes the
	// low bits of 2⁵²'s mantissa, and 2⁵² + 1022 comes off
	VPSRLQ $52, Y0, Y1
	VPOR   logconst<>+LG_TWO52(SB), Y1, Y1
	VSUBPD logconst<>+LG_TWO52K(SB), Y1, Y1
	// f1 = the mantissa with exponent 2⁻¹
	VANDPD logconst<>+LG_MANT(SB), Y0, Y2
	VORPD  logconst<>+LG_HALF(SB), Y2, Y2
	// if !(√2/2 < f1) { k -= 1; f1 *= 2 }, branch-free as archLog does it
	VMOVUPD logconst<>+LG_HSQRT2(SB), Y3
	VCMPPD  $5, Y2, Y3, Y3 // not less than, unordered true
	VANDPD  logconst<>+LG_ONE(SB), Y3, Y3
	VSUBPD  Y3, Y1, Y1
	VADDPD  logconst<>+LG_ONE(SB), Y3, Y3
	VMULPD  Y3, Y2, Y2
	// f = f1 − 1; s = f/(2 + f); s2 = s·s; s4 = s2·s2
	VSUBPD logconst<>+LG_ONE(SB), Y2, Y2
	VADDPD logconst<>+LG_TWO(SB), Y2, Y0
	VDIVPD Y0, Y2, Y3
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5
	// t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
	VMULPD logconst<>+LG_L7(SB), Y5, Y6
	VADDPD logconst<>+LG_L5(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logconst<>+LG_L3(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logconst<>+LG_L1(SB), Y6, Y6
	VMULPD Y6, Y4, Y4
	// t2 = s4·(L2 + s4·(L4 + s4·L6)); R = t1 + t2
	VMULPD logconst<>+LG_L6(SB), Y5, Y6
	VADDPD logconst<>+LG_L4(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logconst<>+LG_L2(SB), Y6, Y6
	VMULPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4
	// hfsq = 0.5·f·f
	VMULPD logconst<>+LG_HALF(SB), Y2, Y0
	VMULPD Y2, Y0, Y0
	// k·Ln2Hi − ((hfsq − (s·(hfsq + R) + k·Ln2Lo)) − f)
	VADDPD Y0, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD logconst<>+LG_LN2LO(SB), Y1, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y0, Y0
	VSUBPD Y2, Y0, Y0
	VMULPD logconst<>+LG_LN2HI(SB), Y1, Y1
	VSUBPD Y0, Y1, Y1
	VMOVUPD Y1, (DI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, CX
	JLE  group
done:
	VZEROUPPER
	MOVQ BX, ret+24(FP)
	RET

// GATHER4 loads dimension DX of four rows R8 bytes apart into the four lanes
// of Y1, row i in lane i (R10 = 3·R8). Clobbers X2.
#define GATHER4 \
	VMOVSD (DX), X1; \
	VMOVHPD (DX)(R8*1), X1, X1; \
	VMOVSD (DX)(R8*2), X2; \
	VMOVHPD (DX)(R10*1), X2, X2; \
	VINSERTF128 $1, X2, Y1, Y1

// func normRows4(dst, x *float64, n, cols int, gain, bias *float64, eps float64)
//
// Layer norm of n rows of x (n a positive multiple of four, cols > 0 values
// a row) into dst, which may be x itself, four rows to a pass, one row per
// lane: mean = Σ x[j] from +0 in ascending j (one VADDPD a column), divided
// by cols; var = Σ (x[j] − mean)² likewise; is = 1/√(var + eps) (VSQRTPD,
// VDIVPD). Then each row's cells, four columns a register (the last few
// through lane masks): ((x[j] − mean)·is)·gain[j] + bias[j]. The per-row
// mean and is are spilled to the frame and broadcast back.
TEXT ·normRows4(SB), NOSPLIT, $64-56
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), R9
	MOVQ cols+24(FP), R13
	MOVQ gain+32(FP), R11
	MOVQ bias+40(FP), R12
	CVTSQ2SD R13, X15
	VBROADCASTSD X15, Y15
	VBROADCASTSD eps+48(FP), Y14
	VMOVUPD expconst<>+ONE(SB), Y13
	MOVQ R13, R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R10
	MOVQ R13, AX
	ANDQ $3, AX
	MOVQ $8, DX
	SUBQ AX, DX
	LEAQ tailmask<>(SB), CX
	VMOVUPD (CX)(DX*8), Y12
group:
	VXORPD Y0, Y0, Y0
	MOVQ SI, DX
	MOVQ R13, CX
mean:
	GATHER4
	VADDPD Y1, Y0, Y0
	ADDQ $8, DX
	DECQ CX
	JNZ  mean
	VDIVPD Y15, Y0, Y0
	VXORPD Y3, Y3, Y3
	MOVQ SI, DX
	MOVQ R13, CX
variance:
	GATHER4
	VSUBPD Y0, Y1, Y1
	VMULPD Y1, Y1, Y1
	VADDPD Y1, Y3, Y3
	ADDQ $8, DX
	DECQ CX
	JNZ  variance
	VDIVPD Y15, Y3, Y3
	VADDPD Y14, Y3, Y3
	VSQRTPD Y3, Y3
	VDIVPD Y3, Y13, Y4
	VMOVUPD Y0, 0(SP)
	VMOVUPD Y4, 32(SP)
	MOVQ SI, DX
	MOVQ DI, R14
	XORQ AX, AX
outrow:
	VBROADCASTSD 0(SP)(AX*8), Y5
	VBROADCASTSD 32(SP)(AX*8), Y6
	XORQ CX, CX
	MOVQ R13, BX
cols4:
	CMPQ BX, $4
	JLT  coltail
	VMOVUPD (DX)(CX*1), Y7
	VSUBPD Y5, Y7, Y7
	VMULPD Y6, Y7, Y7
	VMULPD (R11)(CX*1), Y7, Y7
	VADDPD (R12)(CX*1), Y7, Y7
	VMOVUPD Y7, (R14)(CX*1)
	ADDQ $32, CX
	SUBQ $4, BX
	JMP  cols4
coltail:
	TESTQ BX, BX
	JZ   rowdone
	VMASKMOVPD (DX)(CX*1), Y12, Y7
	VSUBPD Y5, Y7, Y7
	VMULPD Y6, Y7, Y7
	VMASKMOVPD (R11)(CX*1), Y12, Y8
	VMULPD Y8, Y7, Y7
	VMASKMOVPD (R12)(CX*1), Y12, Y8
	VADDPD Y8, Y7, Y7
	VMASKMOVPD Y7, Y12, (R14)(CX*1)
rowdone:
	ADDQ R8, DX
	ADDQ R8, R14
	INCQ AX
	CMPQ AX, $4
	JLT  outrow
	LEAQ (SI)(R8*4), SI
	LEAQ (DI)(R8*4), DI
	SUBQ $4, R9
	JNZ  group
	VZEROUPPER
	RET
