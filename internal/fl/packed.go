package fl

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Packed exact columns.
//
// A Partial's column sums are signed 128-bit integers, but a sum of sane
// model updates uses a fraction of that range: |Σ| < 0.5 already fits the
// low 64 bits, the upper word being pure sign extension. The packed form
// is the byte serialization that carries only the bytes holding
// information. The columns are cut into blocks of packedBlock coordinates
// (the last block may be short); each block is
//
//	1 byte    width n ∈ [1, 16]
//	count·n   the block's sums, each the low n bytes of the 128-bit
//	          two's-complement value, little-endian
//
// and n is the MINIMUM width that sign-extends back to every sum of the
// block. Minimality makes the encoding canonical — one byte string per
// column vector — so decode∘encode is the identity and a frame cannot
// smuggle redundant bytes. The width is read off the data; it is lossless
// for every representable sum, up to the full 16 bytes.

const (
	// packedBlock is the number of coordinates sharing one width tag.
	packedBlock = 256
	// packedMaxWidth is a full 128-bit sum.
	packedMaxWidth = 16
)

// MaxPackedLen returns the longest packed encoding of dim columns: every
// block at full width plus its tag — the bound a receiver applies before
// reading a packed partial.
func MaxPackedLen(dim int) int {
	return packedMaxWidth*dim + (dim+packedBlock-1)/packedBlock
}

// PackedCols is a validated, read-only view of packed column sums. The
// only way to a non-empty one is ParsePacked, so holding one is proof the
// bytes are a canonical encoding of Dim() columns; the view aliases the
// buffer it was parsed from.
type PackedCols struct {
	dim  int
	data []byte
}

// Dim returns the number of coordinates the view encodes.
func (c PackedCols) Dim() int { return c.dim }

// packedWidth returns the minimal byte width holding a two's-complement
// value whose sign-folded magnitude (value XOR its sign mask) is (xlo,
// xhi): the magnitude's bit length plus a sign bit, rounded up to bytes.
func packedWidth(xlo, xhi uint64) int {
	if xhi != 0 {
		return 9 + bits.Len64(xhi)/8
	}
	return 1 + bits.Len64(xlo)/8
}

// appendPackedCols appends the packed encoding of cols (lo at 2j, hi at
// 2j+1) to dst.
func appendPackedCols(dst []byte, cols []uint64) []byte {
	for len(cols) > 0 {
		blk := cols
		if len(blk) > 2*packedBlock {
			blk = blk[:2*packedBlock]
		}
		cols = cols[len(blk):]
		// OR the sign-folded magnitudes: the widest sum sets the width.
		var xlo, xhi uint64
		for j := 0; j < len(blk); j += 2 {
			sign := uint64(int64(blk[j+1]) >> 63)
			xlo |= blk[j] ^ sign
			xhi |= blk[j+1] ^ sign
		}
		n := packedWidth(xlo, xhi)
		dst = append(dst, byte(n))
		if n == 8 {
			for j := 0; j < len(blk); j += 2 {
				dst = binary.LittleEndian.AppendUint64(dst, blk[j])
			}
			continue
		}
		for j := 0; j < len(blk); j += 2 {
			var b [packedMaxWidth]byte
			binary.LittleEndian.PutUint64(b[:], blk[j])
			binary.LittleEndian.PutUint64(b[8:], blk[j+1])
			dst = append(dst, b[:n]...)
		}
	}
	return dst
}

// ParsePacked validates data as the canonical packed encoding of exactly
// dim columns and returns a view aliasing it. A width tag outside [1, 16],
// a tag wider than its block needs, and a section shorter or longer than
// dim dictates are all errors; nothing is allocated, and the walk is
// bounded by len(data) however large dim claims to be.
func ParsePacked(dim int, data []byte) (PackedCols, error) {
	if dim < 0 || dim > len(data) { // every coordinate takes at least a byte
		return PackedCols{}, fmt.Errorf("fl: packed columns: %d coordinates cannot fit %d bytes", dim, len(data))
	}
	rest := data
	for left := dim; left > 0; {
		count := min(left, packedBlock)
		if len(rest) == 0 {
			return PackedCols{}, fmt.Errorf("fl: packed columns: truncated before coordinate %d", dim-left)
		}
		n := int(rest[0])
		if n < 1 || n > packedMaxWidth {
			return PackedCols{}, fmt.Errorf("fl: packed columns: width tag %d at coordinate %d", n, dim-left)
		}
		if len(rest) < 1+count*n {
			return PackedCols{}, fmt.Errorf("fl: packed columns: truncated inside the block at coordinate %d", dim-left)
		}
		if body := rest[1 : 1+count*n]; n > 1 && !needsWidth(body, n) {
			return PackedCols{}, fmt.Errorf("fl: packed columns: width tag %d at coordinate %d is wider than the block needs", n, dim-left)
		}
		rest = rest[1+count*n:]
		left -= count
	}
	if len(rest) != 0 {
		return PackedCols{}, fmt.Errorf("fl: packed columns: %d bytes trail the last block", len(rest))
	}
	return PackedCols{dim: dim, data: data}, nil
}

// needsWidth reports whether some n-byte value of the block would not
// survive truncation to n-1 bytes, i.e. its top byte is not the sign
// extension of the byte below.
func needsWidth(body []byte, n int) bool {
	for i := n - 1; i < len(body); i += n {
		if body[i] != byte(int8(body[i-1])>>7) {
			return true
		}
	}
	return false
}

// unpackBlock sign-extends one block's n-byte values into dst (lo at 2j,
// hi at 2j+1); len(dst)/2 is the block's coordinate count.
func unpackBlock(dst []uint64, src []byte, n int) {
	if n == 8 {
		for j := 0; j < len(dst); j += 2 {
			lo := binary.LittleEndian.Uint64(src[4*j:])
			dst[j], dst[j+1] = lo, uint64(int64(lo)>>63)
		}
		return
	}
	for j := 0; j < len(dst); j += 2 {
		v := src[j/2*n:][:n]
		var b [packedMaxWidth]byte
		if int8(v[n-1]) < 0 {
			for i := n; i < len(b); i++ {
				b[i] = 0xff
			}
		}
		copy(b[:], v)
		dst[j] = binary.LittleEndian.Uint64(b[:])
		dst[j+1] = binary.LittleEndian.Uint64(b[8:])
	}
}

// AppendPacked appends the packed encoding of the partial's column sums
// to dst and returns the extended slice: materialized Cols are packed at
// their minimal widths, a Packed view is copied verbatim (it is canonical
// already).
func (p *Partial) AppendPacked(dst []byte) []byte {
	if p.Packed.dim != 0 {
		return append(dst, p.Packed.data...)
	}
	return appendPackedCols(dst, p.Cols)
}

// addPacked adds a packed view's sums into p's materialized columns block
// by block through a fixed scratch, so no column vector the size of the
// model is ever built for the source. The view's structure was validated
// when it was parsed; the only failure left is an accumulator overflow,
// which poisons p exactly as in Merge.
func (p *Partial) addPacked(src PackedCols) error {
	var scratch [2 * packedBlock]uint64
	rest := src.data
	for at := 0; at < src.dim; at += packedBlock {
		count := min(src.dim-at, packedBlock)
		n := int(rest[0])
		blk := scratch[:2*count]
		unpackBlock(blk, rest[1:1+count*n], n)
		if err := p.addCols(2*at, blk); err != nil {
			return err
		}
		rest = rest[1+count*n:]
	}
	return nil
}
