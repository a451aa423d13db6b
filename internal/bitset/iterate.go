// Word-level iteration and gather/scatter over the freezing bitmap. The
// APF hot path touches every model scalar several times per round; these
// helpers process the mask 64 bits at a time — skipping all-clear words
// outright, bulk-copying through all-set words, and walking mixed words
// with bits.TrailingZeros64 — instead of testing scalars one by one.
package bitset

import "math/bits"

// allOnes is a fully set word.
const allOnes = ^uint64(0)

// NextSet returns the index of the first set bit at or after i, or -1 when
// no set bit remains.
func (b *BitSet) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	wi := i / wordBits
	// Mask off the bits below i in the first candidate word.
	w := b.words[wi] >> (i % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if w := b.words[wi]; w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// IterateSet calls fn for every set bit in ascending order.
func (b *BitSet) IterateSet(fn func(i int)) {
	for wi, w := range b.words {
		base := wi * wordBits
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1 // clear the lowest set bit
		}
	}
}

// IterateClear calls fn for every clear bit in ascending order.
func (b *BitSet) IterateClear(fn func(i int)) {
	for wi, w := range b.words {
		tail := b.tailMask(wi)
		if w == tail {
			continue
		}
		base := wi * wordBits
		inv := ^w & tail
		for inv != 0 {
			fn(base + bits.TrailingZeros64(inv))
			inv &= inv - 1
		}
	}
}

// AnyInWord reports whether backing word wi contains any set bit.
func (b *BitSet) AnyInWord(wi int) bool { return b.words[wi] != 0 }

// SetWord overwrites backing word wi. Bits beyond Len in the final word
// must be zero; they are cleared defensively.
func (b *BitSet) SetWord(wi int, w uint64) {
	if wi == len(b.words)-1 && b.n%wordBits != 0 {
		w &= allOnes >> (wordBits - b.n%wordBits)
	}
	b.words[wi] = w
}

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
			end := base + wordBits
			if end > b.n {
				end = b.n
			}
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
			end := base + wordBits
			if end > b.n {
				end = b.n
			}
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
			end := base + wordBits
			if end > b.n {
				end = b.n
			}
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
		end := base + wordBits
		if end > b.n {
			end = b.n
		}
		tail := b.tailMask(wi)
		switch w {
		case 0:
			i += copy(dst[base:end], compact[i:])
		case tail:
			copy(dst[base:end], fill[base:end])
		default:
			for k := base; k < end; k++ {
				if w&1 != 0 {
					dst[k] = fill[k]
				} else {
					dst[k] = compact[i]
					i++
				}
				w >>= 1
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
		end := base + wordBits
		if end > b.n {
			end = b.n
		}
		var w uint64
		for k := base; k < end; k++ {
			if pred(k) {
				w |= 1 << (k - base)
			}
		}
		b.words[wi] = w
	}
}
