package transport

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Update sanitization errors, distinguishable with errors.Is. Each names
// the offending client and round when wrapped by Validator.Check.
var (
	// ErrNonFiniteUpdate marks a payload or weight carrying NaN or Inf.
	ErrNonFiniteUpdate = errors.New("transport: non-finite update")
	// ErrDimMismatch marks a payload whose length cannot belong to the
	// model (empty, or beyond the dense dimension).
	ErrDimMismatch = errors.New("transport: update dimension mismatch")
	// ErrNormOutlier marks an update whose L2 norm exceeds the median-based
	// gate (an exploding or maliciously scaled contribution).
	ErrNormOutlier = errors.New("transport: update norm outlier")
	// ErrDirectionOutlier marks an update pointing away from the decayed
	// reference direction of recently committed updates — the signature of
	// a sign-flipper or other direction-inverting poisoner that a pure
	// magnitude gate cannot see.
	ErrDirectionOutlier = errors.New("transport: update direction outlier")
	// ErrQuarantined marks an update from a client already quarantined for
	// repeated violations.
	ErrQuarantined = errors.New("transport: client quarantined")
)

// ValidatorConfig parameterizes update sanitization.
type ValidatorConfig struct {
	// Clients is the cluster size (strike counters are per client id).
	Clients int
	// Dim is the dense model dimension; payloads longer than it (or empty)
	// are rejected. Compact (mask-elided) payloads are shorter by design,
	// so only the upper bound is enforced here — cross-client length
	// agreement stays with checkUpdates.
	Dim int
	// MaxNormMult rejects an update whose L2 norm exceeds this multiple of
	// the median norm of recently accepted updates (0 disables the gate;
	// the gate also stays silent until MinHistory norms are on record).
	MaxNormMult float64
	// StrikeLimit quarantines a client after this many violations
	// (default 3). Quarantined clients' updates are rejected outright.
	StrikeLimit int
	// NormWindow is the rolling accepted-norm history length feeding the
	// median (default 64).
	NormWindow int
	// MinHistory is the minimum number of accepted norms before the norm
	// gate arms (default 3).
	MinHistory int
	// CosineFloor rejects an update whose cosine similarity against the
	// decayed reference direction falls below this value (0 disables the
	// gate; negative floors are meaningful — e.g. -0.5 rejects only
	// strongly inverted updates). The reference is built from committed
	// updates' unit directions over the unfrozen coordinates, so the gate
	// composes with mask-compacted payloads; it resets whenever the
	// payload geometry changes (mask refresh) and stays silent until
	// CosineMinHistory commits rebuild it.
	CosineFloor float64
	// CosineDecay is the exponential decay applied to the reference
	// direction per committed update (default 0.9). Smaller values track
	// model drift faster but average fewer honest directions.
	CosineDecay float64
	// CosineMinHistory is the minimum number of committed updates folded
	// into the reference (at its current geometry) before the cosine gate
	// arms (default 3).
	CosineMinHistory int
	// RoundNormMult arms the post-round norm review: after a round
	// closes, any accepted update whose norm exceeded this multiple of
	// the round's median norm earns a strike (0 disables; requires at
	// least 3 participants). Unlike MaxNormMult's rolling history — which
	// lags when the model's update norms grow round over round — the
	// round-relative review catches norm-evasive scalers that stay just
	// above their honest peers every round.
	RoundNormMult float64
}

// Validator sanitizes inbound UpdateMsgs before they reach the
// aggregator: non-finite values, impossible dimensions, and norm
// outliers are rejected with typed errors, violations accumulate
// per-client strikes, and a client at the strike limit is quarantined.
// It is the transport-level defense line; fl.Aggregator.Add re-checks
// finiteness independently so a bypassed or disabled validator still
// cannot poison the shards.
//
// Validator methods are not safe for concurrent use; the server calls
// them from its single round loop.
type Validator struct {
	cfg     ValidatorConfig
	strikes []int
	quar    []bool
	// quarRound records the round at which each client was quarantined
	// (-1 while not quarantined, and after a checkpoint restore, where the
	// snapshot carries the flag but not the round it was set in).
	quarRound []int

	norms  []float64 // rolling accepted L2 norms
	next   int
	filled int
	sorted []float64 // scratch for the median

	// Cosine-gate state: the decayed sum of committed updates' unit
	// directions, its cached L2 norm, and how many commits are folded in
	// at the current geometry.
	ref      []float64
	refNorm  float64
	refCount int
	// lastCos records the cosine computed by the most recent Check (valid
	// only when lastCosOK; reset at the top of every Check) so the engine
	// can feed the telemetry histogram without recomputing the dot.
	lastCos   float64
	lastCosOK bool
}

// NewValidator builds a validator; zero-value knobs take defaults.
func NewValidator(cfg ValidatorConfig) *Validator {
	if cfg.Clients <= 0 {
		panic(fmt.Sprintf("transport: validator over %d clients", cfg.Clients))
	}
	if cfg.StrikeLimit <= 0 {
		cfg.StrikeLimit = 3
	}
	if cfg.NormWindow <= 0 {
		cfg.NormWindow = 64
	}
	if cfg.MinHistory <= 0 {
		cfg.MinHistory = 3
	}
	if cfg.CosineDecay <= 0 || cfg.CosineDecay >= 1 {
		cfg.CosineDecay = 0.9
	}
	if cfg.CosineMinHistory <= 0 {
		cfg.CosineMinHistory = 3
	}
	v := &Validator{
		cfg:       cfg,
		strikes:   make([]int, cfg.Clients),
		quar:      make([]bool, cfg.Clients),
		quarRound: make([]int, cfg.Clients),
		norms:     make([]float64, cfg.NormWindow),
		sorted:    make([]float64, 0, cfg.NormWindow),
	}
	for i := range v.quarRound {
		v.quarRound[i] = -1
	}
	return v
}

// Check validates one update from client id without touching the norm
// history. A nil error means the update passed every gate; the returned
// norm must be handed to Commit once the update clears all later guards
// (the aggregator may still reject it), so an update refused downstream
// never skews the median gate. A non-nil return is one of the typed
// errors above, wrapped with client and round context. Each rejection
// other than ErrQuarantined costs the client a strike; reaching the
// strike limit quarantines it permanently for the run.
func (v *Validator) Check(id, round int, payload []float64, weight float64) (float64, error) {
	v.lastCosOK = false
	if id < 0 || id >= v.cfg.Clients {
		return 0, fmt.Errorf("%w: round %d: client id %d out of range", ErrDimMismatch, round, id)
	}
	if v.quar[id] {
		return 0, fmt.Errorf("%w: round %d: client %d (%d strikes)", ErrQuarantined, round, id, v.strikes[id])
	}
	if len(payload) == 0 || (v.cfg.Dim > 0 && len(payload) > v.cfg.Dim) {
		return 0, v.strike(id, round, fmt.Errorf("%w: round %d: client %d payload length %d outside (0,%d]",
			ErrDimMismatch, round, id, len(payload), v.cfg.Dim))
	}
	if math.IsNaN(weight) || math.IsInf(weight, 0) {
		return 0, v.strike(id, round, fmt.Errorf("%w: round %d: client %d weight %v", ErrNonFiniteUpdate, round, id, weight))
	}
	// One pass computes the norm and catches non-finite scalars (a NaN
	// or Inf anywhere makes the running sum non-finite).
	sum := 0.0
	for _, x := range payload {
		sum += x * x
	}
	if math.IsNaN(sum) || math.IsInf(sum, 0) {
		for j, x := range payload {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0, v.strike(id, round, fmt.Errorf("%w: round %d: client %d scalar %d is %v",
					ErrNonFiniteUpdate, round, id, j, x))
			}
		}
		return 0, v.strike(id, round, fmt.Errorf("%w: round %d: client %d norm overflow", ErrNonFiniteUpdate, round, id))
	}
	norm := math.Sqrt(sum)
	if v.cfg.MaxNormMult > 0 && v.filled >= v.cfg.MinHistory {
		if med := v.median(); med > 0 && norm > v.cfg.MaxNormMult*med {
			return 0, v.strike(id, round, fmt.Errorf("%w: round %d: client %d norm %.6g exceeds %gx median %.6g",
				ErrNormOutlier, round, id, norm, v.cfg.MaxNormMult, med))
		}
	}
	if v.cfg.CosineFloor != 0 && v.refCount >= v.cfg.CosineMinHistory &&
		len(payload) == len(v.ref) && norm > 0 && v.refNorm > 0 {
		dot := 0.0
		for j, x := range payload {
			dot += x * v.ref[j]
		}
		cos := dot / (norm * v.refNorm)
		v.lastCos, v.lastCosOK = cos, true
		if cos < v.cfg.CosineFloor {
			return 0, v.strike(id, round, fmt.Errorf("%w: round %d: client %d cosine %.4f below floor %g",
				ErrDirectionOutlier, round, id, cos, v.cfg.CosineFloor))
		}
	}
	return norm, nil
}

// LastCosine returns the cosine similarity the most recent Check computed
// against the reference direction, and whether one was computed at all
// (the gate may be disabled, unarmed, or the geometries mismatched).
func (v *Validator) LastCosine() (float64, bool) { return v.lastCos, v.lastCosOK }

// Commit records a fully accepted update into the gate state: its norm
// into the rolling history feeding the median gate, and its unit
// direction into the decayed reference the cosine gate judges against.
// Call it with the norm Check returned and the same payload, only after
// every later guard (the aggregator's) also accepted the update. A
// payload length different from the reference's signals a mask refresh:
// the reference restarts at the new geometry and the cosine gate holds
// fire until CosineMinHistory fresh commits rebuild it.
func (v *Validator) Commit(norm float64, payload []float64) {
	v.norms[v.next] = norm
	v.next = (v.next + 1) % len(v.norms)
	if v.filled < len(v.norms) {
		v.filled++
	}
	if v.cfg.CosineFloor == 0 || norm <= 0 {
		return
	}
	if len(v.ref) != len(payload) {
		if cap(v.ref) < len(payload) {
			v.ref = make([]float64, len(payload))
		}
		v.ref = v.ref[:len(payload)]
		for j := range v.ref {
			v.ref[j] = 0
		}
		v.refCount = 0
	}
	decay, inv := v.cfg.CosineDecay, 1/norm
	sum := 0.0
	for j, x := range payload {
		r := decay*v.ref[j] + x*inv
		v.ref[j] = r
		sum += r * r
	}
	v.refNorm = math.Sqrt(sum)
	v.refCount++
}

// reviewStrike names one post-round review violation: the struck client
// and the (ErrNormOutlier-wrapping) cause.
type reviewStrike struct {
	ID  int
	Err error
}

// ReviewRound runs the post-round norm review over one committed round:
// ids and norms (parallel slices) are the accepted participants and the
// norms Check returned for them. Any participant whose norm exceeded
// RoundNormMult times the round's median is struck — the returned
// strikes (one per offender, each wrapping ErrNormOutlier) let the
// caller log and count them. Nil when the review is disabled or fewer
// than 3 updates committed; the round-relative comparison is meaningless
// below that.
func (v *Validator) ReviewRound(round int, ids []int, norms []float64) []reviewStrike {
	if v.cfg.RoundNormMult <= 0 || len(ids) < 3 || len(ids) != len(norms) {
		return nil
	}
	v.sorted = append(v.sorted[:0], norms...)
	sort.Float64s(v.sorted)
	var med float64
	if n := len(v.sorted); n%2 == 1 {
		med = v.sorted[n/2]
	} else {
		med = (v.sorted[n/2-1] + v.sorted[n/2]) / 2
	}
	if med <= 0 {
		return nil
	}
	var strikes []reviewStrike
	for i, id := range ids {
		if norms[i] > v.cfg.RoundNormMult*med {
			strikes = append(strikes, reviewStrike{ID: id, Err: v.strike(id, round, fmt.Errorf(
				"%w: round %d: client %d norm %.6g exceeds %gx round median %.6g",
				ErrNormOutlier, round, id, norms[i], v.cfg.RoundNormMult, med))})
		}
	}
	return strikes
}

// strike charges one violation to the client and quarantines it at the
// limit, recording the round the quarantine tripped in.
func (v *Validator) strike(id, round int, err error) error {
	v.strikes[id]++
	if v.strikes[id] >= v.cfg.StrikeLimit && !v.quar[id] {
		v.quar[id] = true
		v.quarRound[id] = round
	}
	return err
}

// median returns the median of the recorded norms.
func (v *Validator) median() float64 {
	v.sorted = append(v.sorted[:0], v.norms[:v.filled]...)
	sort.Float64s(v.sorted)
	n := len(v.sorted)
	if n%2 == 1 {
		return v.sorted[n/2]
	}
	return (v.sorted[n/2-1] + v.sorted[n/2]) / 2
}

// snapshotState captures the validator's durable state — per-client
// strikes, quarantine flags and rounds, the accepted-norm history in
// chronological order, and the cosine gate's reference direction — for
// inclusion in the server snapshot, so a restarted coordinator neither
// readmits a quarantined poisoner nor disarms any gate until fresh
// history accumulates.
func (v *Validator) snapshotState() *validatorState {
	st := &validatorState{
		Strikes:   append([]int(nil), v.strikes...),
		Quar:      append([]bool(nil), v.quar...),
		QuarRound: append([]int(nil), v.quarRound...),
		Ref:       append([]float64(nil), v.ref...),
		RefCount:  v.refCount,
	}
	if v.filled < len(v.norms) {
		st.Norms = append(st.Norms, v.norms[:v.filled]...)
	} else {
		st.Norms = append(st.Norms, v.norms[v.next:]...)
		st.Norms = append(st.Norms, v.norms[:v.next]...)
	}
	return st
}

// restoreState loads a snapshotState capture. The norm history replays
// oldest-first; if the configured window shrank across the restart, only
// the newest norms are kept.
func (v *Validator) restoreState(st *validatorState) error {
	if len(st.Strikes) != v.cfg.Clients || len(st.Quar) != v.cfg.Clients || len(st.QuarRound) != v.cfg.Clients {
		return fmt.Errorf("transport: checkpoint validator state covers %d/%d/%d clients, cluster has %d",
			len(st.Strikes), len(st.Quar), len(st.QuarRound), v.cfg.Clients)
	}
	copy(v.strikes, st.Strikes)
	copy(v.quar, st.Quar)
	copy(v.quarRound, st.QuarRound)
	norms := st.Norms
	if len(norms) > len(v.norms) {
		norms = norms[len(norms)-len(v.norms):]
	}
	v.filled = copy(v.norms, norms)
	v.next = v.filled % len(v.norms)
	v.ref = append(v.ref[:0], st.Ref...)
	v.refCount = st.RefCount
	sum := 0.0
	for _, x := range v.ref {
		sum += x * x
	}
	v.refNorm = math.Sqrt(sum)
	return nil
}

// Strikes returns client id's violation count.
func (v *Validator) Strikes(id int) int { return v.strikes[id] }

// Quarantined reports whether client id is quarantined.
func (v *Validator) Quarantined(id int) bool { return v.quar[id] }

// QuarantineRound returns the round in which client id was quarantined,
// or -1 if it is not quarantined.
func (v *Validator) QuarantineRound(id int) int { return v.quarRound[id] }

// QuarantinedCount returns how many clients are quarantined.
func (v *Validator) QuarantinedCount() int {
	n := 0
	for _, q := range v.quar {
		if q {
			n++
		}
	}
	return n
}
