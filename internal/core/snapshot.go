package core

import (
	"fmt"
	"math"

	"apf/internal/bitset"
	"apf/internal/checkpoint"
	"apf/internal/perturb"
)

// State is a serializable snapshot of a Manager (all fields exported for
// codecs; EncodeState encodes it in binary), carried by catch-up snapshots
// and the server's durable shadow: a restored manager continues the
// freezing protocol exactly where the original left off, preserving
// cross-client mask consistency.
//
// A state may cover only some 64-scalar mask words (Select): sketch
// catch-up ships exactly the words whose generations differ. The
// per-scalar arrays, the tracker's averages and seeded bits, and WordGen
// then hold the covered words' entries in packed form (bitset.GatherWords),
// while the manager-global scalars are always whole.
//
// Right after an ApplyDownload, Ref is the synchronized model bit for bit
// (frozen scalars sit at their last synchronized value, the pull
// overwrites every other one) and CheckCount its mask generation, so
// catch-up frames and the durable follower carry neither twice.
type State struct {
	Dim int
	// Words lists the covered mask words, strictly ascending; nil covers
	// every word (a full state).
	Words       []int
	Ref         []float64
	LastCheck   []float64
	Tracker     perturb.EMAState
	Period      []float64
	UnfreezeAt  []int
	RandomUntil []int
	Threshold   float64
	CheckCount  int
	Initialized bool
	InitRound   int
	// LastRound is the most recent round observed by ApplyDownload (-1
	// before the first download).
	LastRound int
	// WordGen is the per-word generation vector (see recon.go).
	WordGen []uint32
}

// Snapshot captures the manager's full protocol state. The configuration
// (policy, thresholds schedule, random-freezing mode) is not part of the
// snapshot; Restore must be given the same Config the original manager
// was built with.
func (m *Manager) Snapshot() *State {
	return &State{
		Dim:         m.cfg.Dim,
		Ref:         append([]float64(nil), m.ref...),
		LastCheck:   append([]float64(nil), m.lastCheck...),
		Tracker:     m.tracker.Snapshot(),
		Period:      append([]float64(nil), m.period...),
		UnfreezeAt:  widen(m.unfreezeAt),
		RandomUntil: widen(m.randomUntil),
		Threshold:   m.threshold,
		CheckCount:  m.checkCount,
		Initialized: m.initialized,
		InitRound:   m.initRound,
		LastRound:   m.lastRound,
		WordGen:     append([]uint32(nil), m.wordGen...),
	}
}

// Select returns the full state s restricted to words, a strictly
// ascending list of mask words. Catch-up exports a sketch delta this way
// from a captured state, without a live manager.
func (s *State) Select(words []int) (*State, error) {
	if s.Words != nil {
		return nil, fmt.Errorf("core: select from a state covering %d words, want a full state", len(s.Words))
	}
	if _, err := bitset.CheckWords(s.Dim, words); err != nil {
		return nil, fmt.Errorf("core: select: %w", err)
	}
	part := *s
	part.Words = append([]int{}, words...)
	part.Ref = bitset.GatherWords(s.Ref, words)
	part.LastCheck = bitset.GatherWords(s.LastCheck, words)
	part.Tracker.E = bitset.GatherWords(s.Tracker.E, words)
	part.Tracker.A = bitset.GatherWords(s.Tracker.A, words)
	part.Period = bitset.GatherWords(s.Period, words)
	part.UnfreezeAt = bitset.GatherWords(s.UnfreezeAt, words)
	part.RandomUntil = bitset.GatherWords(s.RandomUntil, words)
	part.Tracker.Seeded = make([]uint64, len(words))
	part.WordGen = make([]uint32, len(words))
	for i, w := range words {
		part.Tracker.Seeded[i] = s.Tracker.Seeded[w]
		part.WordGen[i] = s.WordGen[w]
	}
	return &part, nil
}

// Restore reconstructs a manager from cfg and a full snapshot taken from a
// manager built with an identical cfg.
func Restore(cfg Config, s *State) (*Manager, error) {
	cfg = cfg.withDefaults()
	if s == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if s.Words != nil {
		return nil, fmt.Errorf("core: restore needs a full state, got one covering %d words", len(s.Words))
	}
	if cfg.Dim == 0 {
		cfg.Dim = s.Dim
	}
	if cfg.Dim != s.Dim {
		return nil, fmt.Errorf("core: snapshot dimension %d does not match config dimension %d", s.Dim, cfg.Dim)
	}
	m := NewManager(cfg)
	if err := m.RestoreSnapshot(s); err != nil {
		return nil, err
	}
	return m, nil
}

// RestoreSnapshot overwrites the manager's protocol state in place from a
// snapshot of a manager built with an identical Config (the same EMA α
// included): every covered word's state plus the manager-global scalars.
// It is the catch-up entry point: a returning client adopts the
// coordinator's replica wholesale (a full state) or just the words a
// sketch found different (a word-restricted state). On error the manager
// is unchanged.
func (m *Manager) RestoreSnapshot(s *State) error {
	if s == nil {
		return fmt.Errorf("core: nil snapshot")
	}
	if s.Dim != m.cfg.Dim {
		return fmt.Errorf("core: snapshot dimension %d does not match manager dimension %d", s.Dim, m.cfg.Dim)
	}
	words := s.Words
	if words == nil {
		words = make([]int, len(m.wordGen))
		for w := range words {
			words[w] = w
		}
	}
	n, err := bitset.CheckWords(s.Dim, words)
	if err != nil {
		return fmt.Errorf("core: snapshot coverage: %w", err)
	}
	for name, l := range map[string]int{
		"Ref":         len(s.Ref),
		"LastCheck":   len(s.LastCheck),
		"Period":      len(s.Period),
		"UnfreezeAt":  len(s.UnfreezeAt),
		"RandomUntil": len(s.RandomUntil),
	} {
		if l != n {
			return fmt.Errorf("core: snapshot field %s has length %d, want %d", name, l, n)
		}
	}
	if len(s.WordGen) != len(words) {
		return fmt.Errorf("core: snapshot word-gen length %d, want %d", len(s.WordGen), len(words))
	}
	if math.IsNaN(s.Threshold) {
		return fmt.Errorf("core: snapshot threshold NaN")
	}
	if err := m.tracker.Restore(s.Tracker, words); err != nil {
		return fmt.Errorf("core: restore tracker: %w", err)
	}

	bitset.ScatterWords(m.ref, s.Ref, words)
	bitset.ScatterWords(m.lastCheck, s.LastCheck, words)
	bitset.ScatterWords(m.period, s.Period, words)
	bitset.ScatterWords(m.unfreezeAt, narrow(s.UnfreezeAt), words)
	bitset.ScatterWords(m.randomUntil, narrow(s.RandomUntil), words)
	for i, w := range words {
		m.wordGen[w] = s.WordGen[i]
	}
	m.threshold = s.Threshold
	m.checkCount = s.CheckCount
	m.initialized = s.Initialized
	m.initRound = s.InitRound
	m.lastRound = s.LastRound
	m.maskRound = -1
	return nil
}

// widen copies a manager's deadlines into a State's form.
func widen(d []int32) []int {
	out := make([]int, len(d))
	for i, v := range d {
		out[i] = int(v)
	}
	return out
}

// narrow converts a State's deadlines into the manager's form, saturating
// at the int32 bounds: a Permanent deadline that a manager with 64-bit
// deadlines wrote as next + MaxInt32 restores as MaxInt32 (frozen for
// every reachable round), and every other reachable deadline converts
// exactly.
func narrow(d []int) []int32 {
	out := make([]int32, len(d))
	for i, v := range d {
		out[i] = int32(min(max(v, math.MinInt32), math.MaxInt32))
	}
	return out
}

// EncodeState encodes a manager snapshot with the checkpoint.Writer
// primitives: the one encoding of manager state, on disk and on the wire.
// It is unframed — each carrier (a catch-up SnapshotMsg, the durable
// shadow inside a server snapshot) already frames and checksums what it
// holds. It is bit-exact: every float64 round-trips through its IEEE-754
// bits, so a restored manager continues the freezing protocol from the
// identical EMAs, periods, and threshold.
func EncodeState(s *State) []byte {
	var w checkpoint.Writer
	w.Int(s.Dim)
	w.Bool(s.Words != nil)
	if s.Words != nil {
		w.Ints(s.Words)
	}
	w.F64s(s.Ref)
	w.F64s(s.LastCheck)
	w.F64(s.Tracker.Alpha)
	w.F64s(s.Tracker.E)
	w.F64s(s.Tracker.A)
	w.Int(s.Tracker.Seen)
	w.U64s(s.Tracker.Seeded)
	w.F64s(s.Period)
	w.Ints(s.UnfreezeAt)
	w.Ints(s.RandomUntil)
	w.F64(s.Threshold)
	w.Int(s.CheckCount)
	w.Bool(s.Initialized)
	w.Int(s.InitRound)
	w.Int(s.LastRound)
	gens := make([]int, len(s.WordGen))
	for i, g := range s.WordGen {
		gens[i] = int(g)
	}
	w.Ints(gens)
	return w.Bytes()
}

// DecodeState reads an EncodeState encoding back into a State, verifying
// its structure: a truncation, a trailing byte, an array length that
// overruns the buffer or a word generation past 32 bits is refused with an
// error wrapping checkpoint.ErrCorrupt. Array lengths against Dim are
// checked by the restore.
func DecodeState(buf []byte) (*State, error) {
	r := checkpoint.NewReader(buf)
	s := &State{Dim: r.Int()}
	if r.Bool() {
		s.Words = append([]int{}, r.Ints()...)
	}
	s.Ref = r.F64s()
	s.LastCheck = r.F64s()
	s.Tracker = perturb.EMAState{
		Alpha:  r.F64(),
		E:      r.F64s(),
		A:      r.F64s(),
		Seen:   r.Int(),
		Seeded: r.U64s(),
	}
	s.Period = r.F64s()
	s.UnfreezeAt = r.Ints()
	s.RandomUntil = r.Ints()
	s.Threshold = r.F64()
	s.CheckCount = r.Int()
	s.Initialized = r.Bool()
	s.InitRound = r.Int()
	s.LastRound = r.Int()
	gens := r.Ints()
	if err := r.Done(); err != nil {
		return nil, err
	}
	s.WordGen = make([]uint32, len(gens))
	for i, g := range gens {
		if g < 0 || g > 1<<32-1 {
			return nil, fmt.Errorf("%w: word generation %d out of range", checkpoint.ErrCorrupt, g)
		}
		s.WordGen[i] = uint32(g)
	}
	return s, nil
}
