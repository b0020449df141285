//go:build amd64

#include "textflag.h"

// 32 bytes of 0x0f: the nibble mask for the split-nibble multiply.
DATA nibMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibMask<>(SB), RODATA|NOPTR, $32

// func avx2MulAsm(lo, hi *[16]byte, dst, src *byte, n int)
// dst[i] = lo[src[i]&0xf] ^ hi[src[i]>>4] for i in [0, n);
// n > 0 and n % 32 == 0.
TEXT ·avx2MulAsm(SB), NOSPLIT, $0-40
	MOVQ           lo+0(FP), AX
	MOVQ           hi+8(FP), BX
	MOVQ           dst+16(FP), DI
	MOVQ           src+24(FP), SI
	MOVQ           n+32(FP), CX
	VBROADCASTI128 (AX), Y4
	VBROADCASTI128 (BX), Y5
	VMOVDQU        nibMask<>(SB), Y6

mulloop:
	VMOVDQU (SI), Y0
	VPSRLW  $4, Y0, Y1
	VPAND   Y6, Y0, Y0
	VPAND   Y6, Y1, Y1
	VPSHUFB Y0, Y4, Y2
	VPSHUFB Y1, Y5, Y3
	VPXOR   Y3, Y2, Y2
	VMOVDQU Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     mulloop
	VZEROUPPER
	RET

// func avx2MulAddAsm(lo, hi *[16]byte, dst, src *byte, n int)
// dst[i] ^= lo[src[i]&0xf] ^ hi[src[i]>>4] for i in [0, n);
// n > 0 and n % 32 == 0.
TEXT ·avx2MulAddAsm(SB), NOSPLIT, $0-40
	MOVQ           lo+0(FP), AX
	MOVQ           hi+8(FP), BX
	MOVQ           dst+16(FP), DI
	MOVQ           src+24(FP), SI
	MOVQ           n+32(FP), CX
	VBROADCASTI128 (AX), Y4
	VBROADCASTI128 (BX), Y5
	VMOVDQU        nibMask<>(SB), Y6

muladdloop:
	VMOVDQU (SI), Y0
	VPSRLW  $4, Y0, Y1
	VPAND   Y6, Y0, Y0
	VPAND   Y6, Y1, Y1
	VPSHUFB Y0, Y4, Y2
	VPSHUFB Y1, Y5, Y3
	VPXOR   Y3, Y2, Y2
	VPXOR   (DI), Y2, Y2
	VMOVDQU Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     muladdloop
	VZEROUPPER
	RET

// func avx2XorAsm(dst, src *byte, n int)
// dst[i] ^= src[i] for i in [0, n); n > 0 and n % 32 == 0.
TEXT ·avx2XorAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

xorloop:
	VMOVDQU (SI), Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     xorloop
	VZEROUPPER
	RET

// The MulSum kernels on the AVX2 rung: gfniMulSum4/1 (gfni_amd64.s) with
// 32-byte blocks and ISA-L's dot-product layout. tbls holds 32 bytes per
// coefficient (the low- and high-nibble tables), source-major, each
// broadcast to both lanes as it is used. n >= 32; the ragged tail is a
// final block ending at n, as there.

// func avx2MulSum4(tbls *byte, in *[]byte, src *int, nsrc, off, n int, d0, d1, d2, d3 *byte)
TEXT ·avx2MulSum4(SB), NOSPLIT, $0-80
	MOVQ    tbls+0(FP), AX
	MOVQ    in+8(FP), BX
	MOVQ    src+16(FP), CX
	MOVQ    nsrc+24(FP), DX
	LEAQ    (CX)(DX*8), DX
	MOVQ    off+32(FP), SI
	MOVQ    d0+48(FP), R9
	MOVQ    d1+56(FP), R10
	MOVQ    d2+64(FP), R11
	MOVQ    d3+72(FP), R12
	XORQ    DI, DI
	VMOVDQU nibMask<>(SB), Y15

sum4block:
	MOVQ  AX, R13
	MOVQ  CX, R14
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3

sum4source:
	MOVQ           (R14), R8
	LEAQ           (R8)(R8*2), R8
	MOVQ           (BX)(R8*8), R8
	VMOVDQU        (R8)(SI*1), Y4
	VPSRLW         $4, Y4, Y5
	VPAND          Y15, Y4, Y4
	VPAND          Y15, Y5, Y5
	VBROADCASTI128 (R13), Y6
	VBROADCASTI128 16(R13), Y7
	VBROADCASTI128 32(R13), Y8
	VBROADCASTI128 48(R13), Y9
	VPSHUFB        Y4, Y6, Y6
	VPSHUFB        Y5, Y7, Y7
	VPSHUFB        Y4, Y8, Y8
	VPSHUFB        Y5, Y9, Y9
	VPXOR          Y6, Y7, Y6
	VPXOR          Y8, Y9, Y8
	VPXOR          Y6, Y0, Y0
	VPXOR          Y8, Y1, Y1
	VBROADCASTI128 64(R13), Y6
	VBROADCASTI128 80(R13), Y7
	VBROADCASTI128 96(R13), Y8
	VBROADCASTI128 112(R13), Y9
	VPSHUFB        Y4, Y6, Y6
	VPSHUFB        Y5, Y7, Y7
	VPSHUFB        Y4, Y8, Y8
	VPSHUFB        Y5, Y9, Y9
	VPXOR          Y6, Y7, Y6
	VPXOR          Y8, Y9, Y8
	VPXOR          Y6, Y2, Y2
	VPXOR          Y8, Y3, Y3
	ADDQ           $128, R13
	ADDQ           $8, R14
	CMPQ           R14, DX
	JNE            sum4source

	VMOVDQU Y0, (R9)(DI*1)
	VMOVDQU Y1, (R10)(DI*1)
	VMOVDQU Y2, (R11)(DI*1)
	VMOVDQU Y3, (R12)(DI*1)
	ADDQ    $32, DI
	ADDQ    $32, SI
	MOVQ    n+40(FP), R8
	CMPQ    DI, R8
	JEQ     sum4done
	LEAQ    32(DI), R13
	CMPQ    R13, R8
	JLE     sum4block
	SUBQ    DI, SI
	SUBQ    $32, R8
	MOVQ    R8, DI
	ADDQ    R8, SI
	JMP     sum4block

sum4done:
	VZEROUPPER
	RET

// func avx2MulSum1(tbls *byte, in *[]byte, src *int, nsrc, off, n int, d0 *byte)
TEXT ·avx2MulSum1(SB), NOSPLIT, $0-56
	MOVQ    tbls+0(FP), AX
	MOVQ    in+8(FP), BX
	MOVQ    src+16(FP), CX
	MOVQ    nsrc+24(FP), DX
	LEAQ    (CX)(DX*8), DX
	MOVQ    off+32(FP), SI
	MOVQ    d0+48(FP), R9
	XORQ    DI, DI
	VMOVDQU nibMask<>(SB), Y15

sum1block:
	MOVQ  AX, R13
	MOVQ  CX, R14
	VPXOR Y0, Y0, Y0

sum1source:
	MOVQ           (R14), R8
	LEAQ           (R8)(R8*2), R8
	MOVQ           (BX)(R8*8), R8
	VMOVDQU        (R8)(SI*1), Y4
	VPSRLW         $4, Y4, Y5
	VPAND          Y15, Y4, Y4
	VPAND          Y15, Y5, Y5
	VBROADCASTI128 (R13), Y6
	VBROADCASTI128 16(R13), Y7
	VPSHUFB        Y4, Y6, Y6
	VPSHUFB        Y5, Y7, Y7
	VPXOR          Y6, Y7, Y6
	VPXOR          Y6, Y0, Y0
	ADDQ           $32, R13
	ADDQ           $8, R14
	CMPQ           R14, DX
	JNE            sum1source

	VMOVDQU Y0, (R9)(DI*1)
	ADDQ    $32, DI
	ADDQ    $32, SI
	MOVQ    n+40(FP), R8
	CMPQ    DI, R8
	JEQ     sum1done
	LEAQ    32(DI), R13
	CMPQ    R13, R8
	JLE     sum1block
	SUBQ    DI, SI
	SUBQ    $32, R8
	MOVQ    R8, DI
	ADDQ    R8, SI
	JMP     sum1block

sum1done:
	VZEROUPPER
	RET
