package nn

import "fmt"

// The APF paper operates on the model as one flat scalar vector (its §3.2
// footnote: expand every tensor with Tensor.view(-1) and concatenate).
// These helpers provide that flat view over a []*Param model.

// ParamCount returns the total number of scalars across params.
func ParamCount(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Data.Size()
	}
	return n
}

// Span names a contiguous region of the flat parameter vector belonging to
// one named tensor, mirroring the per-tensor buckets of the paper's Fig. 3.
type Span struct {
	Name      string
	Offset    int
	Length    int
	Trainable bool
}

// Spans returns the flat-vector layout of params in order.
func Spans(params []*Param) []Span {
	spans := make([]Span, 0, len(params))
	off := 0
	for _, p := range params {
		spans = append(spans, Span{Name: p.Name, Offset: off, Length: p.Data.Size(), Trainable: p.Trainable})
		off += p.Data.Size()
	}
	return spans
}

// FlattenParams copies all parameter values into dst (allocated when nil or of
// the wrong length) and returns it. A span of dst the parameter already
// views (BindFlat) is left as it is.
func FlattenParams(params []*Param, dst []float64) []float64 {
	n := ParamCount(params)
	if len(dst) != n {
		dst = make([]float64, n)
	}
	off := 0
	for _, p := range params {
		copyUnaliased(dst[off:off+p.Data.Size()], p.Data.Data)
		off += p.Data.Size()
	}
	return dst
}

// SetFlat writes src back into the parameter tensors. len(src) must equal
// ParamCount(params). A parameter that views its span of src (BindFlat)
// already holds it.
func SetFlat(params []*Param, src []float64) {
	if len(src) != ParamCount(params) {
		panic(fmt.Sprintf("nn: SetFlat length %d does not match parameter count %d", len(src), ParamCount(params)))
	}
	off := 0
	for _, p := range params {
		copyUnaliased(p.Data.Data, src[off:off+p.Data.Size()])
		off += p.Data.Size()
	}
}

// BindFlat makes x the storage of the model: it copies the parameter values
// into x (len(x) must equal ParamCount(params)) and re-points every
// parameter's Data at its span of x, so writes through either side are
// seen by the other and FlattenParams/SetFlat over x move nothing. Layers
// read Param.Data afresh on every pass, never through a view kept from
// construction, which is what makes the re-pointing safe.
func BindFlat(params []*Param, x []float64) {
	if len(x) != ParamCount(params) {
		panic(fmt.Sprintf("nn: BindFlat length %d does not match parameter count %d", len(x), ParamCount(params)))
	}
	FlattenParams(params, x)
	off := 0
	for _, p := range params {
		n := p.Data.Size()
		p.Data.Data = x[off : off+n : off+n]
		off += n
	}
}

// copyUnaliased copies src into dst unless both are the same span.
func copyUnaliased(dst, src []float64) {
	if len(dst) > 0 && &dst[0] == &src[0] {
		return
	}
	copy(dst, src)
}

// FlattenGrads copies all gradient values into dst (allocated when nil or
// of the wrong length) and returns it.
func FlattenGrads(params []*Param, dst []float64) []float64 {
	n := ParamCount(params)
	if len(dst) != n {
		dst = make([]float64, n)
	}
	off := 0
	for _, p := range params {
		copy(dst[off:], p.Gradient().Data)
		off += p.Data.Size()
	}
	return dst
}
