package checkpoint

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// The byte ↔ float kernel every dense vector of a frame goes through:
// Writer.F64s, Reader.F64s and package wire's streaming frame reader. The
// frame stores a float64 as its IEEE-754 bits, little-endian, which is
// exactly how a little-endian host holds it in memory; there the
// conversion is a copy (or no copy: a reader can fill the vector's own
// bytes), and elsewhere it is the portable per-scalar loop. Copying bits
// keeps every pattern, NaN payloads included, so both forms write and read
// the same bytes.

// nativeLE reports whether the host stores a float64 as the frame does.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// F64Bytes returns v's memory as the 8·len(v) bytes a frame holds for it,
// aliasing v, when the host is little-endian; nil otherwise (and for an
// empty v). Writing a frame's bytes into it fills v, bit for bit. It is
// the module's one use of package unsafe.
func F64Bytes(v []float64) []byte {
	if !nativeLE || len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// PutF64s writes v into b as little-endian IEEE-754 bit patterns; b must
// hold 8·len(v) bytes.
func PutF64s(b []byte, v []float64) {
	if src := F64Bytes(v); src != nil {
		copy(b[:len(src)], src)
		return
	}
	putF64sPortable(b, v)
}

// GetF64s fills v from the little-endian IEEE-754 bit patterns in b,
// which must hold 8·len(v) bytes.
func GetF64s(v []float64, b []byte) {
	if dst := F64Bytes(v); dst != nil {
		copy(dst, b[:len(dst)])
		return
	}
	getF64sPortable(v, b)
}

// putF64sPortable is PutF64s on any host, one scalar at a time.
func putF64sPortable(b []byte, v []float64) {
	b = b[:8*len(v)]
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// getF64sPortable is GetF64s on any host, one scalar at a time.
func getF64sPortable(v []float64, b []byte) {
	b = b[:8*len(v)]
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}
