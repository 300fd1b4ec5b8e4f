//go:build !purego

#include "textflag.h"

// The eight-lane Montgomery ladder (ladder8.go). A field element of eight
// lanes is five ZMM words, one per radix-2⁵¹ limb, lane l of each word being
// lane l's limb. Every product is a pair of AVX-512 IFMA instructions:
// VPMADD52LUQ adds the low 52 bits of the 104-bit product of the low 52 bits
// of its operands, VPMADD52HUQ the high 52 bits. ladder8.go has the limb
// bound that keeps every multiplied limb below 2⁵².
//
// The state x1, x2, z2, x3, z3 and four temporaries A, B, C, D live in a
// 64-byte-aligned frame, 320 bytes a value; the multiplications hold one
// operand and their eighteen accumulators in registers and read the other
// operand from the frame.
//
// Registers kept across the ladder:
//	Z31	2⁵¹ − 1 in every lane (the limb mask)
//	Z30	19
//	Z29	2⁵² − 38, limb 0 of 2p
//	Z28	2⁵² − 2, limbs 1 to 4 of 2p
//	Z27	121666 = (486662 + 2) / 4
//	Z26	the swap mask: all ones or all zeros
//	DI	the aligned frame

// Frame offsets of the nine values.
#define OX1 0
#define OX2 320
#define OZ2 640
#define OX3 960
#define OZ3 1280
#define OA 1600
#define OB 1920
#define OC 2240
#define OD 2560

// CARRY makes r0..r4 carried (limbs below 2⁵¹ + 2¹⁴, ladder8.go) from limbs
// below 2⁶⁰: each limb keeps its low 51 bits plus the carry out of the limb
// below, limb 0 plus 19 times the carry out of limb 4. The carries are taken
// in parallel, not in a chain. t0 and t1 are clobbered.
#define CARRY(r0, r1, r2, r3, r4, t0, t1) \
	VPSRLQ      $51, r4, t1; VPANDQ Z31, r4, r4;                   \
	VPSRLQ      $51, r3, t0; VPANDQ Z31, r3, r3; VPADDQ t0, r4, r4; \
	VPSRLQ      $51, r2, t0; VPANDQ Z31, r2, r2; VPADDQ t0, r3, r3; \
	VPSRLQ      $51, r1, t0; VPANDQ Z31, r1, r1; VPADDQ t0, r2, r2; \
	VPSRLQ      $51, r0, t0; VPANDQ Z31, r0, r0; VPADDQ t0, r1, r1; \
	VPMADD52LUQ Z30, t1, r0

// LOAD5 and STORE5 move the value at frame offset v to or from r0..r4.
#define LOAD5(v, r0, r1, r2, r3, r4) \
	VMOVDQA64 (v+0)(DI), r0;   \
	VMOVDQA64 (v+64)(DI), r1;  \
	VMOVDQA64 (v+128)(DI), r2; \
	VMOVDQA64 (v+192)(DI), r3; \
	VMOVDQA64 (v+256)(DI), r4

#define STORE5(v, r0, r1, r2, r3, r4) \
	VMOVDQA64 r0, (v+0)(DI);   \
	VMOVDQA64 r1, (v+64)(DI);  \
	VMOVDQA64 r2, (v+128)(DI); \
	VMOVDQA64 r3, (v+192)(DI); \
	VMOVDQA64 r4, (v+256)(DI)

// CSWAP1 swaps limb word i of p and q where the swap mask is set.
#define CSWAP1(p, q, i) \
	VMOVDQA64 (p+i)(DI), Z0; \
	VMOVDQA64 (q+i)(DI), Z1; \
	VPXORQ    Z0, Z1, Z2;    \
	VPANDQ    Z26, Z2, Z2;   \
	VPXORQ    Z2, Z0, Z0;    \
	VPXORQ    Z2, Z1, Z1;    \
	VMOVDQA64 Z0, (p+i)(DI); \
	VMOVDQA64 Z1, (q+i)(DI)

// CSWAP swaps p and q in every lane if the swap mask is all ones, and leaves
// them if it is all zeros, with the same instructions either way.
#define CSWAP(p, q) \
	CSWAP1(p, q, 0);   \
	CSWAP1(p, q, 64);  \
	CSWAP1(p, q, 128); \
	CSWAP1(p, q, 192); \
	CSWAP1(p, q, 256)

// ADDSUB sets sum = a + b and diff = a − b + 2p, both carried. a and b must
// be carried, so that no limb of 2p − b underflows; sum and diff may alias
// them.
#define ADDSUB(a, b, sum, diff) \
	LOAD5(a, Z0, Z1, Z2, Z3, Z4);                 \
	LOAD5(b, Z5, Z6, Z7, Z8, Z9);                 \
	VPADDQ Z0, Z5, Z10;                           \
	VPADDQ Z1, Z6, Z11;                           \
	VPADDQ Z2, Z7, Z12;                           \
	VPADDQ Z3, Z8, Z13;                           \
	VPADDQ Z4, Z9, Z14;                           \
	VPADDQ Z29, Z0, Z0;                           \
	VPADDQ Z28, Z1, Z1;                           \
	VPADDQ Z28, Z2, Z2;                           \
	VPADDQ Z28, Z3, Z3;                           \
	VPADDQ Z28, Z4, Z4;                           \
	VPSUBQ Z5, Z0, Z0;                            \
	VPSUBQ Z6, Z1, Z1;                            \
	VPSUBQ Z7, Z2, Z2;                            \
	VPSUBQ Z8, Z3, Z3;                            \
	VPSUBQ Z9, Z4, Z4;                            \
	CARRY(Z10, Z11, Z12, Z13, Z14, Z15, Z16);     \
	CARRY(Z0, Z1, Z2, Z3, Z4, Z17, Z18);          \
	STORE5(sum, Z10, Z11, Z12, Z13, Z14);         \
	STORE5(diff, Z0, Z1, Z2, Z3, Z4)

// SUB sets out = a − b + 2p, carried; a and b must be carried.
#define SUB(a, b, out) \
	LOAD5(a, Z0, Z1, Z2, Z3, Z4);        \
	VPADDQ Z29, Z0, Z0;                  \
	VPADDQ Z28, Z1, Z1;                  \
	VPADDQ Z28, Z2, Z2;                  \
	VPADDQ Z28, Z3, Z3;                  \
	VPADDQ Z28, Z4, Z4;                  \
	VPSUBQ (b+0)(DI), Z0, Z0;            \
	VPSUBQ (b+64)(DI), Z1, Z1;           \
	VPSUBQ (b+128)(DI), Z2, Z2;          \
	VPSUBQ (b+192)(DI), Z3, Z3;          \
	VPSUBQ (b+256)(DI), Z4, Z4;          \
	CARRY(Z0, Z1, Z2, Z3, Z4, Z5, Z6);   \
	STORE5(out, Z0, Z1, Z2, Z3, Z4)

// The products. Z0..Z4 hold the first operand; Z5..Z13 accumulate L0..L8,
// the low halves of the products at limb position k, and Z14..Z22
// accumulate H1..H9, the high halves landing at position k. A high half
// weighs 2⁵² = 2·2⁵¹ against its low half, so position k holds Lk + 2·Hk.

#define ZERO18 \
	VPXORQ Z5, Z5, Z5;    VPXORQ Z6, Z6, Z6;    VPXORQ Z7, Z7, Z7;    \
	VPXORQ Z8, Z8, Z8;    VPXORQ Z9, Z9, Z9;    VPXORQ Z10, Z10, Z10; \
	VPXORQ Z11, Z11, Z11; VPXORQ Z12, Z12, Z12; VPXORQ Z13, Z13, Z13; \
	VPXORQ Z14, Z14, Z14; VPXORQ Z15, Z15, Z15; VPXORQ Z16, Z16, Z16; \
	VPXORQ Z17, Z17, Z17; VPXORQ Z18, Z18, Z18; VPXORQ Z19, Z19, Z19; \
	VPXORQ Z20, Z20, Z20; VPXORQ Z21, Z21, Z21; VPXORQ Z22, Z22, Z22

// PROD adds the product of x and y into the low accumulator lo and the
// high accumulator hi.
#define PROD(x, y, lo, hi) \
	VPMADD52LUQ x, y, lo; \
	VPMADD52HUQ x, y, hi

// ROW adds b_j, loaded from the frame into Z23, times a0..a4 into positions
// j to j+4 (low) and j+1 to j+5 (high).
#define ROW(bj, l0, l1, l2, l3, l4, h1, h2, h3, h4, h5) \
	VMOVDQA64 bj, Z23;    \
	PROD(Z23, Z0, l0, h1); \
	PROD(Z23, Z1, l1, h2); \
	PROD(Z23, Z2, l2, h3); \
	PROD(Z23, Z3, l3, h4); \
	PROD(Z23, Z4, l4, h5)

// FOLD1 sets r = r + 2·h + 19·(l5 + 2·h5), the limb-j sum of the reduction
// modulo p (2²⁵⁵ ≡ 19), with 19s = s + 2s + 16s. l5 and h5 are clobbered.
#define FOLD1(r, h, l5, h5) \
	VPADDQ h5, l5, l5;    \
	VPADDQ h5, l5, l5;    \
	VPADDQ l5, r, r;      \
	VPADDQ l5, h, Z24;    \
	VPADDQ Z24, r, r;     \
	VPADDQ Z24, r, r;     \
	VPSLLQ $4, l5, l5;    \
	VPADDQ l5, r, r

// REDUCE folds L0..L8, H1..H9 into the five limbs of the product in
// Z5..Z9, carried. Position k ≥ 5 weighs 19 times position k − 5.
#define REDUCE \
	VPADDQ Z18, Z18, Z23; /* 2·H5 */ \
	VPADDQ Z10, Z23, Z10; /* s5 = L5 + 2·H5 */ \
	VPADDQ Z10, Z5, Z5;            \
	VPADDQ Z10, Z5, Z5;            \
	VPADDQ Z10, Z5, Z5;            \
	VPSLLQ $4, Z10, Z10;           \
	VPADDQ Z10, Z5, Z5; /* r0 = L0 + 19·s5 */ \
	FOLD1(Z6, Z14, Z11, Z19); /* r1 = L1 + 2·H1 + 19·s6 */ \
	FOLD1(Z7, Z15, Z12, Z20);      \
	FOLD1(Z8, Z16, Z13, Z21);      \
	VPADDQ Z22, Z22, Z22; /* s9 = 2·H9 */ \
	VPADDQ Z22, Z9, Z9;            \
	VPADDQ Z17, Z22, Z24;          \
	VPADDQ Z24, Z9, Z9;            \
	VPADDQ Z24, Z9, Z9;            \
	VPSLLQ $4, Z22, Z22;           \
	VPADDQ Z22, Z9, Z9; /* r4 = L4 + 2·H4 + 19·s9 */ \
	CARRY(Z5, Z6, Z7, Z8, Z9, Z0, Z1)

// MUL sets out = a·b, carried; a and b must be carried. out may alias
// either: every read precedes the stores.
#define MUL(a, b, out) \
	LOAD5(a, Z0, Z1, Z2, Z3, Z4);                                      \
	ZERO18;                                                            \
	ROW((b+0)(DI), Z5, Z6, Z7, Z8, Z9, Z14, Z15, Z16, Z17, Z18);       \
	ROW((b+64)(DI), Z6, Z7, Z8, Z9, Z10, Z15, Z16, Z17, Z18, Z19);     \
	ROW((b+128)(DI), Z7, Z8, Z9, Z10, Z11, Z16, Z17, Z18, Z19, Z20);   \
	ROW((b+192)(DI), Z8, Z9, Z10, Z11, Z12, Z17, Z18, Z19, Z20, Z21);  \
	ROW((b+256)(DI), Z9, Z10, Z11, Z12, Z13, Z18, Z19, Z20, Z21, Z22); \
	REDUCE;                                                            \
	STORE5(out, Z5, Z6, Z7, Z8, Z9)

// DOUBLE14 doubles the accumulators the cross products of a square reach:
// L1..L7 and H2..H8.
#define DOUBLE14 \
	VPADDQ Z6, Z6, Z6;    VPADDQ Z7, Z7, Z7;    VPADDQ Z8, Z8, Z8;    \
	VPADDQ Z9, Z9, Z9;    VPADDQ Z10, Z10, Z10; VPADDQ Z11, Z11, Z11; \
	VPADDQ Z12, Z12, Z12; VPADDQ Z15, Z15, Z15; VPADDQ Z16, Z16, Z16; \
	VPADDQ Z17, Z17, Z17; VPADDQ Z18, Z18, Z18; VPADDQ Z19, Z19, Z19; \
	VPADDQ Z20, Z20, Z20; VPADDQ Z21, Z21, Z21

// SQR sets out = a², carried; a must be carried. The ten cross products
// ai·aj, i < j, are accumulated once and doubled, then the five squares
// ai² added: 30 multiply instructions instead of MUL's 50, and the same
// accumulator bound, since each position still sums at most five
// products.
#define SQR(a, out) \
	LOAD5(a, Z0, Z1, Z2, Z3, Z4);  \
	ZERO18;                        \
	PROD(Z0, Z1, Z6, Z15); /* a0·a1 at 1 */ \
	PROD(Z0, Z2, Z7, Z16); /* a0·a2 at 2 */ \
	PROD(Z0, Z3, Z8, Z17); /* a0·a3 at 3 */ \
	PROD(Z0, Z4, Z9, Z18); /* a0·a4 at 4 */ \
	PROD(Z1, Z2, Z8, Z17); /* a1·a2 at 3 */ \
	PROD(Z1, Z3, Z9, Z18); /* a1·a3 at 4 */ \
	PROD(Z1, Z4, Z10, Z19); /* a1·a4 at 5 */ \
	PROD(Z2, Z3, Z10, Z19); /* a2·a3 at 5 */ \
	PROD(Z2, Z4, Z11, Z20); /* a2·a4 at 6 */ \
	PROD(Z3, Z4, Z12, Z21); /* a3·a4 at 7 */ \
	DOUBLE14;                      \
	PROD(Z0, Z0, Z5, Z14); /* a0² at 0 */ \
	PROD(Z1, Z1, Z7, Z16); /* a1² at 2 */ \
	PROD(Z2, Z2, Z9, Z18); /* a2² at 4 */ \
	PROD(Z3, Z3, Z11, Z20); /* a3² at 6 */ \
	PROD(Z4, Z4, Z13, Z22); /* a4² at 8 */ \
	REDUCE;                        \
	STORE5(out, Z5, Z6, Z7, Z8, Z9)

// MULA24 sets out = b + 121666·a, carried; a and b must be carried. The
// low halves of 121666·ai accumulate onto b's limbs, the high halves (below
// 2¹⁷) into Z14..Z18 at positions 1 to 5, position 5 wrapping to 0 as
// 19·2·H5.
#define MULA24(a, b, out) \
	LOAD5(a, Z0, Z1, Z2, Z3, Z4);               \
	LOAD5(b, Z5, Z6, Z7, Z8, Z9);               \
	VPXORQ Z14, Z14, Z14;                       \
	VPXORQ Z15, Z15, Z15;                       \
	VPXORQ Z16, Z16, Z16;                       \
	VPXORQ Z17, Z17, Z17;                       \
	VPXORQ Z18, Z18, Z18;                       \
	PROD(Z27, Z0, Z5, Z14);                     \
	PROD(Z27, Z1, Z6, Z15);                     \
	PROD(Z27, Z2, Z7, Z16);                     \
	PROD(Z27, Z3, Z8, Z17);                     \
	PROD(Z27, Z4, Z9, Z18);                     \
	VPADDQ Z14, Z6, Z6; VPADDQ Z14, Z6, Z6;     \
	VPADDQ Z15, Z7, Z7; VPADDQ Z15, Z7, Z7;     \
	VPADDQ Z16, Z8, Z8; VPADDQ Z16, Z8, Z8;     \
	VPADDQ Z17, Z9, Z9; VPADDQ Z17, Z9, Z9;     \
	VPADDQ Z18, Z18, Z18;                       \
	VPMADD52LUQ Z30, Z18, Z5;                   \
	CARRY(Z5, Z6, Z7, Z8, Z9, Z0, Z1);          \
	STORE5(out, Z5, Z6, Z7, Z8, Z9)

// STEP is one ladder step, the RFC 7748 §5 formulas in the order Go's
// crypto/ecdh writes them, after the conditional swap.
#define STEP \
	CSWAP(OX2, OX3);        \
	CSWAP(OZ2, OZ3);        \
	ADDSUB(OX2, OZ2, OA, OB); /* A = x2 + z2, B = x2 − z2 */ \
	ADDSUB(OX3, OZ3, OC, OD); /* C = x3 + z3, D = x3 − z3 */ \
	MUL(OD, OA, OD); /* D = DA */ \
	MUL(OC, OB, OC); /* C = CB */ \
	SQR(OA, OA); /* A = AA */ \
	SQR(OB, OB); /* B = BB */ \
	MUL(OA, OB, OX2); /* x2 = AA·BB */ \
	SUB(OA, OB, OA); /* A = E = AA − BB */ \
	MULA24(OA, OB, OB); /* B = BB + 121666·E */ \
	MUL(OA, OB, OZ2); /* z2 = E·(BB + 121666·E) */ \
	ADDSUB(OD, OC, OC, OD); /* C = DA + CB, D = DA − CB */ \
	SQR(OC, OX3); /* x3 = (DA + CB)² */ \
	SQR(OD, OD); /* D = (DA − CB)² */ \
	MUL(OX1, OD, OZ3)          // z3 = x1·(DA − CB)²

// PROLOGUE aligns the frame into DI, loads the constants and copies the
// 1,600 bytes of five values at SI into the frame's first five slots.
#define PROLOGUE \
	LEAQ         63(SP), DI;            \
	ANDQ         $-64, DI;              \
	MOVQ         $0x7ffffffffffff, AX;  \
	VPBROADCASTQ AX, Z31;               \
	MOVQ         $19, AX;               \
	VPBROADCASTQ AX, Z30;               \
	MOVQ         $0xfffffffffffda, AX;  \
	VPBROADCASTQ AX, Z29;               \
	MOVQ         $0xffffffffffffe, AX;  \
	VPBROADCASTQ AX, Z28;               \
	MOVQ         $121666, AX;           \
	VPBROADCASTQ AX, Z27;               \
	MOVQ         $0, AX;                \
copyin:                                 \
	VMOVDQU64    (SI)(AX*1), Z0;        \
	VMOVDQA64    Z0, (DI)(AX*1);        \
	ADDQ         $64, AX;               \
	CMPQ         AX, $1600;             \
	JNE          copyin

// EPILOGUE copies the frame's first five slots back to SI.
#define EPILOGUE \
	MOVQ      $0, AX;              \
copyout:                           \
	VMOVDQA64 (DI)(AX*1), Z0;      \
	VMOVDQU64 Z0, (SI)(AX*1);      \
	ADDQ      $64, AX;             \
	CMPQ      AX, $1600;           \
	JNE       copyout;             \
	VZEROUPPER

// func ladder8(st *ladderState8, swaps []uint64)
TEXT ·ladder8(SB), 0, $2944-32
	MOVQ st+0(FP), SI
	MOVQ swaps_base+8(FP), BX
	MOVQ swaps_len+16(FP), CX
	PROLOGUE
	TESTQ CX, CX
	JZ    done

loop:
	// The swap mask is the negated flag, 0 or 1, in every lane.
	MOVQ         (BX), AX
	NEGQ         AX
	VPBROADCASTQ AX, Z26
	STEP
	ADDQ         $8, BX
	DECQ         CX
	JNZ          loop

done:
	EPILOGUE
	RET

// func fieldOps8(v *[5]vec8)
TEXT ·fieldOps8(SB), 0, $1664-8
	MOVQ v+0(FP), SI
	PROLOGUE
	MUL(OX1, OX2, OZ2)
	SQR(OX1, OX3)
	MULA24(OX1, OX2, OZ3)
	EPILOGUE
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
