//go:build amd64

#include "textflag.h"

// func cpuidx(op, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidx(SB), NOSPLIT, $0-24
	MOVL op+0(FP), AX
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

// func gfniMulAsm(mat uint64, dst, src *byte, n int)
// dst[i] = M*src[i] byte-wise for i in [0, n); n > 0 and n % 64 == 0.
TEXT ·gfniMulAsm(SB), NOSPLIT, $0-32
	VPBROADCASTQ mat+0(FP), Z1
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX

mulloop:
	VMOVDQU64      (SI), Z2
	VGF2P8AFFINEQB $0, Z1, Z2, Z2
	VMOVDQU64      Z2, (DI)
	ADDQ           $64, SI
	ADDQ           $64, DI
	SUBQ           $64, CX
	JNZ            mulloop
	VZEROUPPER
	RET

// func gfniMulAddAsm(mat uint64, dst, src *byte, n int)
// dst[i] ^= M*src[i] byte-wise for i in [0, n); n > 0 and n % 64 == 0.
TEXT ·gfniMulAddAsm(SB), NOSPLIT, $0-32
	VPBROADCASTQ mat+0(FP), Z1
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX

muladdloop:
	VMOVDQU64      (SI), Z2
	VGF2P8AFFINEQB $0, Z1, Z2, Z2
	VPXORQ         (DI), Z2, Z2
	VMOVDQU64      Z2, (DI)
	ADDQ           $64, SI
	ADDQ           $64, DI
	SUBQ           $64, CX
	JNZ            muladdloop
	VZEROUPPER
	RET

// func xorAsm(dst, src *byte, n int)
// dst[i] ^= src[i] for i in [0, n); n > 0 and n % 64 == 0.
TEXT ·xorAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

xorloop:
	VMOVDQU64 (SI), Z2
	VPXORQ    (DI), Z2, Z2
	VMOVDQU64 Z2, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $64, CX
	JNZ       xorloop
	VZEROUPPER
	RET

// The MulSum kernels. For every 64-byte block b of [0, n) they set
// d_j[b] = XOR_i M(i, j) * in[src[i]][off+b], walking the sources in the
// inner loop with one ZMM accumulator per destination, so each destination
// block is stored once. The first source initializes the accumulators;
// the rest go two at a time, folded in with one three-way XOR
// (VPTERNLOGQ $0x96), so an accumulation costs one and a half vector ops
// per multiply instead of two. mats holds the bit-matrices source-major
// (the destinations' matrices for source i are adjacent) and is read with
// an embedded broadcast, so no table is indexed in the loop. Source
// pointers come from the []byte headers of in (24 bytes each), indexed by
// src. n >= 64. A ragged tail is finished by one more block ending at n:
// it recomputes bytes already stored, which is harmless because the
// kernels overwrite their destinations and never read them.

// SRCPTR loads the data pointer of in[src[i]] for the index at (R14).
#define SRCPTR(reg) \
	MOVQ (R14), reg           \
	LEAQ (reg)(reg*2), reg    \
	MOVQ (BX)(reg*8), reg

// Registers of both kernels: AX mats, BX in, CX src, DX end of src, SI the
// source offset and DI the destination offset of the current block, R13
// the mats cursor, R14 the src cursor, R8 scratch.

// func gfniMulSum4(mats *uint64, in *[]byte, src *int, nsrc, off, n int, d0, d1, d2, d3 *byte)
TEXT ·gfniMulSum4(SB), NOSPLIT, $0-80
	MOVQ mats+0(FP), AX
	MOVQ in+8(FP), BX
	MOVQ src+16(FP), CX
	MOVQ nsrc+24(FP), DX
	LEAQ (CX)(DX*8), DX
	MOVQ off+32(FP), SI
	MOVQ d0+48(FP), R9
	MOVQ d1+56(FP), R10
	MOVQ d2+64(FP), R11
	MOVQ d3+72(FP), R12
	XORQ DI, DI

sum4block:
	MOVQ                AX, R13
	MOVQ                CX, R14
	SRCPTR(R8)
	VMOVDQU64           (R8)(SI*1), Z8
	VGF2P8AFFINEQB.BCST $0, (R13), Z8, Z0
	VGF2P8AFFINEQB.BCST $0, 8(R13), Z8, Z1
	VGF2P8AFFINEQB.BCST $0, 16(R13), Z8, Z2
	VGF2P8AFFINEQB.BCST $0, 24(R13), Z8, Z3
	ADDQ                $32, R13
	ADDQ                $8, R14

sum4pair:
	LEAQ                16(R14), R8
	CMPQ                R8, DX
	JHI                 sum4odd
	SRCPTR(R8)
	VMOVDQU64           (R8)(SI*1), Z8
	ADDQ                $8, R14
	SRCPTR(R8)
	VMOVDQU64           (R8)(SI*1), Z9
	ADDQ                $8, R14
	VGF2P8AFFINEQB.BCST $0, (R13), Z8, Z4
	VGF2P8AFFINEQB.BCST $0, 8(R13), Z8, Z5
	VGF2P8AFFINEQB.BCST $0, 16(R13), Z8, Z6
	VGF2P8AFFINEQB.BCST $0, 24(R13), Z8, Z7
	VGF2P8AFFINEQB.BCST $0, 32(R13), Z9, Z10
	VGF2P8AFFINEQB.BCST $0, 40(R13), Z9, Z11
	VGF2P8AFFINEQB.BCST $0, 48(R13), Z9, Z12
	VGF2P8AFFINEQB.BCST $0, 56(R13), Z9, Z13
	VPTERNLOGQ          $0x96, Z10, Z4, Z0
	VPTERNLOGQ          $0x96, Z11, Z5, Z1
	VPTERNLOGQ          $0x96, Z12, Z6, Z2
	VPTERNLOGQ          $0x96, Z13, Z7, Z3
	ADDQ                $64, R13
	JMP                 sum4pair

sum4odd:
	CMPQ                R14, DX
	JEQ                 sum4store
	SRCPTR(R8)
	VMOVDQU64           (R8)(SI*1), Z8
	VGF2P8AFFINEQB.BCST $0, (R13), Z8, Z4
	VGF2P8AFFINEQB.BCST $0, 8(R13), Z8, Z5
	VGF2P8AFFINEQB.BCST $0, 16(R13), Z8, Z6
	VGF2P8AFFINEQB.BCST $0, 24(R13), Z8, Z7
	VPXORQ              Z4, Z0, Z0
	VPXORQ              Z5, Z1, Z1
	VPXORQ              Z6, Z2, Z2
	VPXORQ              Z7, Z3, Z3

sum4store:
	VMOVDQU64 Z0, (R9)(DI*1)
	VMOVDQU64 Z1, (R10)(DI*1)
	VMOVDQU64 Z2, (R11)(DI*1)
	VMOVDQU64 Z3, (R12)(DI*1)
	ADDQ      $64, DI
	ADDQ      $64, SI
	MOVQ      n+40(FP), R8
	CMPQ      DI, R8
	JEQ       sum4done
	LEAQ      64(DI), R13
	CMPQ      R13, R8
	JLE       sum4block
	SUBQ      DI, SI      // ragged tail: back up to the block ending at n
	SUBQ      $64, R8
	MOVQ      R8, DI
	ADDQ      R8, SI
	JMP       sum4block

sum4done:
	VZEROUPPER
	RET

// func gfniMulSum1(mats *uint64, in *[]byte, src *int, nsrc, off, n int, d0 *byte)
TEXT ·gfniMulSum1(SB), NOSPLIT, $0-56
	MOVQ mats+0(FP), AX
	MOVQ in+8(FP), BX
	MOVQ src+16(FP), CX
	MOVQ nsrc+24(FP), DX
	LEAQ (CX)(DX*8), DX
	MOVQ off+32(FP), SI
	MOVQ d0+48(FP), R9
	XORQ DI, DI

sum1block:
	MOVQ                AX, R13
	MOVQ                CX, R14
	SRCPTR(R8)
	VMOVDQU64           (R8)(SI*1), Z8
	VGF2P8AFFINEQB.BCST $0, (R13), Z8, Z0
	ADDQ                $8, R13
	ADDQ                $8, R14

sum1pair:
	LEAQ                16(R14), R8
	CMPQ                R8, DX
	JHI                 sum1odd
	SRCPTR(R8)
	VMOVDQU64           (R8)(SI*1), Z8
	ADDQ                $8, R14
	SRCPTR(R8)
	VMOVDQU64           (R8)(SI*1), Z9
	ADDQ                $8, R14
	VGF2P8AFFINEQB.BCST $0, (R13), Z8, Z4
	VGF2P8AFFINEQB.BCST $0, 8(R13), Z9, Z5
	VPTERNLOGQ          $0x96, Z5, Z4, Z0
	ADDQ                $16, R13
	JMP                 sum1pair

sum1odd:
	CMPQ                R14, DX
	JEQ                 sum1store
	SRCPTR(R8)
	VMOVDQU64           (R8)(SI*1), Z8
	VGF2P8AFFINEQB.BCST $0, (R13), Z8, Z4
	VPXORQ              Z4, Z0, Z0

sum1store:
	VMOVDQU64 Z0, (R9)(DI*1)
	ADDQ      $64, DI
	ADDQ      $64, SI
	MOVQ      n+40(FP), R8
	CMPQ      DI, R8
	JEQ       sum1done
	LEAQ      64(DI), R13
	CMPQ      R13, R8
	JLE       sum1block
	SUBQ      DI, SI
	SUBQ      $64, R8
	MOVQ      R8, DI
	ADDQ      R8, SI
	JMP       sum1block

sum1done:
	VZEROUPPER
	RET
