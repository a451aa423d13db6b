// Word-level copy, blend and gather/scatter over the freezing bitmap. The
// APF hot path touches every model scalar several times per round; these
// helpers process the mask 64 bits at a time — skipping all-clear words
// outright, bulk-copying through all-set words, and walking mixed words
// with bits.TrailingZeros64 — instead of testing scalars one by one.
package bitset

import (
	"fmt"
	"math/bits"
)

// allOnes is a fully set word.
const allOnes = ^uint64(0)

// tailMask returns the valid-bit mask of the final word (allOnes when the
// length is word-aligned).
func (b *BitSet) tailMask(wi int) uint64 {
	if wi == len(b.words)-1 && b.n%wordBits != 0 {
		return allOnes >> (wordBits - b.n%wordBits)
	}
	return allOnes
}

// checkLen panics when v cannot cover the bitmap.
func (b *BitSet) checkLen(v []float64) {
	if len(v) < b.n {
		panic("bitset: vector shorter than bitmap")
	}
}

// ApplyMasked copies src[j] into dst[j] for every set bit j.
func (b *BitSet) ApplyMasked(dst, src []float64) {
	b.checkLen(dst)
	b.checkLen(src)
	for wi, w := range b.words {
		if w == 0 {
			continue
		}
		base := wi * wordBits
		if w == b.tailMask(wi) {
			end := min(base+wordBits, b.n)
			copy(dst[base:end], src[base:end])
			continue
		}
		for w != 0 {
			j := base + bits.TrailingZeros64(w)
			dst[j] = src[j]
			w &= w - 1
		}
	}
}

// ApplyUnmasked copies src[j] into dst[j] for every clear bit j.
func (b *BitSet) ApplyUnmasked(dst, src []float64) {
	b.checkLen(dst)
	b.checkLen(src)
	for wi, w := range b.words {
		tail := b.tailMask(wi)
		if w == tail {
			continue
		}
		base := wi * wordBits
		if w == 0 {
			end := min(base+wordBits, b.n)
			copy(dst[base:end], src[base:end])
			continue
		}
		inv := ^w & tail
		for inv != 0 {
			j := base + bits.TrailingZeros64(inv)
			dst[j] = src[j]
			inv &= inv - 1
		}
	}
}

// Blend writes set[j] into dst[j] for every set bit j and clear[j] for
// every clear bit j: ApplyUnmasked(dst, clear) then ApplyMasked(dst, set)
// in one pass. Each word copies its majority side wholesale and patches
// the minority bits, so dst must alias neither source.
func (b *BitSet) Blend(dst, set, clear []float64) {
	b.checkLen(dst)
	b.checkLen(set)
	b.checkLen(clear)
	for wi, w := range b.words {
		base := wi * wordBits
		end := min(base+wordBits, b.n)
		from, patch, minority := set, clear, ^w&b.tailMask(wi)
		if 2*bits.OnesCount64(w) < end-base {
			from, patch, minority = clear, set, w
		}
		copy(dst[base:end], from[base:end])
		for minority != 0 {
			j := base + bits.TrailingZeros64(minority)
			dst[j] = patch[j]
			minority &= minority - 1
		}
	}
}

// GatherUnmasked appends src[j] for every clear bit j to dst in ascending
// order and returns the extended slice — the compact (masked_select) form.
func (b *BitSet) GatherUnmasked(dst, src []float64) []float64 {
	b.checkLen(src)
	for wi, w := range b.words {
		tail := b.tailMask(wi)
		if w == tail {
			continue
		}
		base := wi * wordBits
		if w == 0 {
			end := min(base+wordBits, b.n)
			dst = append(dst, src[base:end]...)
			continue
		}
		inv := ^w & tail
		for inv != 0 {
			dst = append(dst, src[base+bits.TrailingZeros64(inv)])
			inv &= inv - 1
		}
	}
	return dst
}

// ScatterUnmasked is the inverse of GatherUnmasked (masked_fill): clear
// bits of dst consume compact in order, set bits take fill[j]. It returns
// the number of compact values consumed.
func (b *BitSet) ScatterUnmasked(dst, compact, fill []float64) int {
	b.checkLen(dst)
	b.checkLen(fill)
	i := 0
	for wi, w := range b.words {
		base := wi * wordBits
		end := min(base+wordBits, b.n)
		tail := b.tailMask(wi)
		switch w {
		case 0:
			i += copy(dst[base:end], compact[i:])
		case tail:
			copy(dst[base:end], fill[base:end])
		default:
			copy(dst[base:end], fill[base:end])
			for inv := ^w & tail; inv != 0; inv &= inv - 1 {
				dst[base+bits.TrailingZeros64(inv)] = compact[i]
				i++
			}
		}
	}
	return i
}

// Fill rebuilds the bitmap from pred, invoked once per index in ascending
// order, accumulating whole words before a single store each.
func (b *BitSet) Fill(pred func(i int) bool) {
	for wi := range b.words {
		base := wi * wordBits
		end := min(base+wordBits, b.n)
		var w uint64
		for k := base; k < end; k++ {
			if pred(k) {
				w |= 1 << (k - base)
			}
		}
		b.words[wi] = w
	}
}

// A word list names 64-scalar blocks of an n-scalar vector in the bitmap's
// word layout. Its packed form lays the listed blocks back to back, so
// block i starts at 64·i; only the last can be short (the vector's trailing
// partial word).

// CheckWords returns how many scalars of an n-scalar vector words covers,
// or an error unless words ascends strictly through the vector's words.
func CheckWords(n int, words []int) (int, error) {
	covered, prev := 0, -1
	for _, w := range words {
		if w <= prev || w >= (n+wordBits-1)/wordBits {
			return 0, fmt.Errorf("bitset: word %d out of order, repeated or beyond %d words", w, (n+wordBits-1)/wordBits)
		}
		covered += min(wordBits, n-w*wordBits)
		prev = w
	}
	return covered, nil
}

// GatherWords returns the packed form of the listed words of v.
func GatherWords[T any](v []T, words []int) []T {
	out := make([]T, 0, len(words)*wordBits)
	for _, w := range words {
		out = append(out, v[w*wordBits:min((w+1)*wordBits, len(v))]...)
	}
	return out
}

// ScatterWords writes packed, the packed form of the listed words, into v.
func ScatterWords[T any](v, packed []T, words []int) {
	for i, w := range words {
		copy(v[w*wordBits:min((w+1)*wordBits, len(v))], packed[i*wordBits:])
	}
}
