//go:build amd64 && !purego

#include "textflag.h"

// lanes<> is 0..15; the eight qwords starting at lane L are the VPERMT2Q
// index that rotates the R front left by L lanes.
DATA lanes<>+0x00(SB)/8, $0
DATA lanes<>+0x08(SB)/8, $1
DATA lanes<>+0x10(SB)/8, $2
DATA lanes<>+0x18(SB)/8, $3
DATA lanes<>+0x20(SB)/8, $4
DATA lanes<>+0x28(SB)/8, $5
DATA lanes<>+0x30(SB)/8, $6
DATA lanes<>+0x38(SB)/8, $7
DATA lanes<>+0x40(SB)/8, $8
DATA lanes<>+0x48(SB)/8, $9
DATA lanes<>+0x50(SB)/8, $10
DATA lanes<>+0x58(SB)/8, $11
DATA lanes<>+0x60(SB)/8, $12
DATA lanes<>+0x68(SB)/8, $13
DATA lanes<>+0x70(SB)/8, $14
DATA lanes<>+0x78(SB)/8, $15
GLOBL lanes<>(SB), RODATA|NOPTR, $128

// func hasAVX512() bool
//
// AVX512F and POPCNT from CPUID, and the OS saving the opmask and ZMM
// state (XCR0 bits 1, 2, 5, 6 and 7), as internal/cpu checks them.
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   done

	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<27|1<<23), CX // OSXSAVE, POPCNT
	CMPL CX, $(1<<27|1<<23)
	JNE  done

	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  done

	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX // AVX512F
	JCC  done
	MOVB $1, ret+0(FP)

done:
	RET

// func crackBlocksAVX512(v []int64, pivot int64, j, i, n int) int
//
// Runs the Lomuto steps of crackInTwoVals for v[i:i+n], eight tuples per
// block, and returns the new j. Requires n a positive multiple of 8,
// i+n <= len(v) and i-j >= 8. Per block x = v[i:i+8] with low mask m and
// L = popcount(m):
//   - v[i+t] = x[t-1] when t > 0 and x[t-1] is high, else the next R
//     value;
//   - v[j:j+L] = the lows in order, and v[j+L] = x[7] when x[7] is high;
//   - the R front v[j:j+8] stays in Z1 across blocks.
TEXT ·crackBlocksAVX512(SB), NOSPLIT, $0-64
	MOVQ v_base+0(FP), SI
	MOVQ j+32(FP), DX
	MOVQ i+40(FP), DI
	MOVQ n+48(FP), R9
	LEAQ (SI)(DX*8), DX        // DX = &v[j]
	LEAQ (SI)(DI*8), DI        // DI = &v[i]
	LEAQ (DI)(R9*8), R9        // R9 = &v[i+n]
	LEAQ lanes<>(SB), R8
	VPBROADCASTQ pivot+24(FP), Z0
	VMOVDQU64 (DX), Z1         // R front
	MOVL $0x80, AX
	KMOVW AX, K4               // lane 7

loop:
	VMOVDQU64 (DI), Z2         // x
	VPCMPGTQ  Z2, Z0, K1       // m: pivot > x
	KMOVW     K1, AX
	LEAQ      1(AX)(AX*1), BX  // (m<<1)|1
	KMOVW     BX, K2
	KORW      K4, K1, K3       // m|0x80
	POPCNTL   AX, BX           // L

	// v[i+t]: x shifted up one lane, merged with the next R values.
	VALIGNQ    $7, Z2, Z2, Z3
	VPEXPANDQ  Z1, K2, Z3
	VMOVDQU64  Z3, (DI)

	// v[j:j+8]: the lows, then x[7] if high, then the rest of the front.
	VPCOMPRESSQ Z2, K3, Z1
	VMOVDQU64   Z1, (DX)

	// New front: lanes L..7 of Z1, then v[j+8:j+8+L].
	VMOVDQU64 (R8)(BX*8), Z4
	VPERMT2Q  64(DX), Z4, Z1
	LEAQ      (DX)(BX*8), DX
	ADDQ      $64, DI
	CMPQ      DI, R9
	JNE       loop

	VZEROUPPER
	SUBQ SI, DX
	SHRQ $3, DX
	MOVQ DX, ret+56(FP)
	RET
