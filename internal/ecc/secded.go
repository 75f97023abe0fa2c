package ecc

import (
	"math/bits"

	"hrmsim/internal/simmem"
)

// SECDED is an extended Hamming (72,64) code: 8 check bits per 64 data
// bits (12.5% added capacity per Table 1), correcting any single-bit error
// and detecting any double-bit error per word. This is the protection of
// the paper's "Typical Server" baseline.
//
// Codeword layout: Hamming positions 1..71, with check bits at the seven
// power-of-two positions and data bits filling the rest; one overall
// parity bit extends the code from SEC to SEC-DED. The check byte stores
// Hamming checks in bits 0..6 and the overall parity in bit 7.
type SECDED struct{}

var _ simmem.Codec = SECDED{}

// NewSECDED returns the SEC-DED codec.
func NewSECDED() SECDED { return SECDED{} }

// secdedPos[k] is the Hamming codeword position of data bit k: the k-th
// position in 1..71 that is not a power of two.
var secdedPos [64]int

// secdedDataIdx maps a Hamming position back to its data bit index, or -1.
var secdedDataIdx [72]int

// secdedTab[i][v] folds data byte i with value v into the codeword in one
// lookup: bits 0..6 accumulate the XOR of the Hamming positions of v's
// set bits, bit 7 accumulates v's parity. XORing the eight lookups yields
// the seven Hamming checks and the overall data parity of a whole word —
// the encode hot path runs eight table loads instead of 64 bit probes.
var secdedTab [8][256]byte

func init() {
	for i := range secdedDataIdx {
		secdedDataIdx[i] = -1
	}
	k := 0
	for p := 1; p <= 71; p++ {
		if p&(p-1) == 0 { // power of two: check-bit position
			continue
		}
		secdedPos[k] = p
		secdedDataIdx[p] = k
		k++
	}
	if k != 64 {
		panic("ecc: SEC-DED position table construction failed")
	}
	for i := 0; i < 8; i++ {
		for v := 0; v < 256; v++ {
			var e byte
			for j := 0; j < 8; j++ {
				if v>>j&1 == 1 {
					e ^= byte(secdedPos[8*i+j])
				}
			}
			secdedTab[i][v] = e | byte(bits.OnesCount8(byte(v))&1)<<7
		}
	}
}

// Name implements simmem.Codec.
func (SECDED) Name() string { return "SEC-DED" }

// WordBytes implements simmem.Codec.
func (SECDED) WordBytes() int { return 8 }

// CheckBytes implements simmem.Codec.
func (SECDED) CheckBytes() int { return 1 }

// CheckBits implements simmem.Codec.
func (SECDED) CheckBits() int { return 8 }

// flipDataBit flips data bit k of an 8-byte word.
func flipDataBit(data []byte, k int) {
	data[k>>3] ^= 1 << (k & 7)
}

// secdedFold XORs the eight per-byte table entries: bits 0..6 are the
// Hamming checks, bit 7 the overall data parity.
func secdedFold(data []byte) byte {
	_ = data[7]
	return secdedTab[0][data[0]] ^ secdedTab[1][data[1]] ^
		secdedTab[2][data[2]] ^ secdedTab[3][data[3]] ^
		secdedTab[4][data[4]] ^ secdedTab[5][data[5]] ^
		secdedTab[6][data[6]] ^ secdedTab[7][data[7]]
}

// Encode implements simmem.Codec.
func (SECDED) Encode(data, check []byte) {
	f := secdedFold(data)
	c := f & 0x7f
	// Overall parity covers all 71 codeword bits: 64 data + 7 checks.
	p := f>>7 ^ byte(bits.OnesCount8(c)&1)
	check[0] = c | p<<7
}

// Decode implements simmem.Codec.
func (SECDED) Decode(data, check []byte) simmem.Verdict {
	storedC := check[0] & 0x7f
	storedP := check[0] >> 7
	f := secdedFold(data)
	calcC := f & 0x7f
	syndrome := int(storedC ^ calcC)
	calcP := f>>7 ^ byte(bits.OnesCount8(storedC)&1)
	parityErr := calcP != storedP

	switch {
	case syndrome == 0 && !parityErr:
		return simmem.VerdictClean
	case syndrome == 0 && parityErr:
		// The overall parity bit itself flipped.
		check[0] ^= 0x80
		return simmem.VerdictCorrected
	case parityErr:
		// Odd number of errors; assume one and locate it by syndrome.
		if syndrome&(syndrome-1) == 0 {
			// Power-of-two syndrome: a check bit flipped.
			check[0] ^= byte(syndrome)
			return simmem.VerdictCorrected
		}
		if syndrome <= 71 && secdedDataIdx[syndrome] >= 0 {
			flipDataBit(data, secdedDataIdx[syndrome])
			return simmem.VerdictCorrected
		}
		// Syndrome points outside the codeword: at least three errors.
		return simmem.VerdictUncorrectable
	default:
		// Nonzero syndrome with even parity: double-bit error.
		return simmem.VerdictUncorrectable
	}
}
