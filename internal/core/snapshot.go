package core

import (
	"fmt"

	"apf/internal/perturb"
)

// State is a serializable snapshot of a Manager (all fields exported for
// codecs; package checkpoint frames it in binary), enabling client
// checkpoint/restart in real deployments: a restored manager continues the
// freezing protocol exactly where the original left off, preserving
// cross-client mask consistency.
type State struct {
	Dim         int
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
		UnfreezeAt:  append([]int(nil), m.unfreezeAt...),
		RandomUntil: append([]int(nil), m.randomUntil...),
		Threshold:   m.threshold,
		CheckCount:  m.checkCount,
		Initialized: m.initialized,
		InitRound:   m.initRound,
		LastRound:   m.lastRound,
		WordGen:     append([]uint32(nil), m.wordGen...),
	}
}

// Restore reconstructs a manager from cfg and a snapshot taken from a
// manager built with an identical cfg.
func Restore(cfg Config, s *State) (*Manager, error) {
	cfg = cfg.withDefaults()
	if s == nil {
		return nil, fmt.Errorf("core: nil snapshot")
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

// RestoreSnapshot overwrites the manager's full protocol state in
// place from a snapshot of a manager built with an identical Config.
// It is the snapshot-catch-up entry point: a returning client adopts
// the coordinator's shadow state wholesale instead of replaying every
// missed round.
func (m *Manager) RestoreSnapshot(s *State) error {
	if s == nil {
		return fmt.Errorf("core: nil snapshot")
	}
	if s.Dim != m.cfg.Dim {
		return fmt.Errorf("core: snapshot dimension %d does not match manager dimension %d", s.Dim, m.cfg.Dim)
	}
	for name, n := range map[string]int{
		"Ref":         len(s.Ref),
		"LastCheck":   len(s.LastCheck),
		"Period":      len(s.Period),
		"UnfreezeAt":  len(s.UnfreezeAt),
		"RandomUntil": len(s.RandomUntil),
	} {
		if n != s.Dim {
			return fmt.Errorf("core: snapshot field %s has length %d, want %d", name, n, s.Dim)
		}
	}
	if len(s.WordGen) != len(m.wordGen) {
		return fmt.Errorf("core: snapshot word-gen length %d, want %d", len(s.WordGen), len(m.wordGen))
	}
	tracker, err := perturb.RestoreEMATracker(s.Tracker)
	if err != nil {
		return fmt.Errorf("core: restore tracker: %w", err)
	}
	if tracker.Dim() != s.Dim {
		return fmt.Errorf("core: snapshot tracker dimension %d, want %d", tracker.Dim(), s.Dim)
	}

	copy(m.ref, s.Ref)
	copy(m.lastCheck, s.LastCheck)
	m.tracker = tracker
	copy(m.period, s.Period)
	copy(m.unfreezeAt, s.UnfreezeAt)
	copy(m.randomUntil, s.RandomUntil)
	m.threshold = s.Threshold
	m.checkCount = s.CheckCount
	m.initialized = s.Initialized
	m.initRound = s.InitRound
	m.lastRound = s.LastRound
	copy(m.wordGen, s.WordGen)
	m.maskRound = -1
	return nil
}
