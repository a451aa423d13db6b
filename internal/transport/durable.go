package transport

import (
	"fmt"
	"time"

	"apf/internal/checkpoint"
	"apf/internal/wire"
)

// serverState is the decoded form of a server snapshot: everything a
// restarted coordinator needs to resume the run bit-exactly (the session
// table keeps client ids stable across the restart; the history feeds
// both resume replay and the round counter). A coordinator persists two
// things only, this snapshot and one WAL record per emitted GlobalMsg
// (its round's commit: a round is durable exactly when its record is).
// The masks, EMAs and freezing periods are a pure function of the
// committed trajectory, so the committed aggregates are all there is to
// persist.
type serverState struct {
	// NumClients is the size of the tier this server terminates: clients
	// on a flat coordinator, relays on the hierarchy's root.
	NumClients int
	Rounds     int
	Init       []float64
	Keys       []string // session keys by client id
	Names      []string // session names by client id
	History    []GlobalMsg
	// PartialRounds preserves the partial-aggregation count across
	// restarts so accounting reflects the whole run.
	PartialRounds int
	// Validator carries the sanitization state (nil when sanitization is
	// disabled). Persisting it keeps quarantined clients out and the norm
	// gate armed across a restart; granularity is the snapshot cadence —
	// strikes charged since the last rotation are lost with the crash.
	Validator *validatorState
	// HistoryBase is the round of History[0]; ShadowRound/Shadow persist
	// the catch-up follower's round and manager state, whose Ref is the
	// model (round -1 and empty when it had nothing to capture at snapshot
	// time).
	HistoryBase int
	ShadowRound int
	Shadow      []byte
}

// validatorState is the durable slice of a Validator: strike counters,
// quarantine flags and rounds, the rolling accepted-norm history
// (chronological, oldest first), and the cosine gate's reference direction
// with its commit count.
type validatorState struct {
	Strikes   []int
	Quar      []bool
	Norms     []float64
	Ref       []float64
	RefCount  int
	QuarRound []int
}

// encodeServerState encodes the snapshot payload (checkpoint.Store frames
// it) into w, reset first, so a reused Writer re-encodes without growing
// once it holds a snapshot. The result aliases w.
func encodeServerState(w *checkpoint.Writer, s *serverState) []byte {
	w.Reset()
	w.Int(s.NumClients)
	w.Int(s.Rounds)
	w.F64s(s.Init)
	w.Int(len(s.Keys))
	for i := range s.Keys {
		w.String(s.Keys[i])
		w.String(s.Names[i])
	}
	w.Int(len(s.History))
	for i := range s.History {
		wire.AppendGlobalBody(w, &s.History[i])
	}
	w.Int(s.PartialRounds)
	w.Bool(s.Validator != nil)
	if v := s.Validator; v != nil {
		w.Ints(v.Strikes)
		w.Int(len(v.Quar))
		for _, q := range v.Quar {
			w.Bool(q)
		}
		w.F64s(v.Norms)
		w.F64s(v.Ref)
		w.Int(v.RefCount)
		w.Ints(v.QuarRound)
	}
	w.Int(s.HistoryBase)
	w.Int(s.ShadowRound)
	w.String(string(s.Shadow))
	return w.Bytes()
}

// decodeServerState reads a snapshot payload back.
func decodeServerState(payload []byte) (*serverState, error) {
	r := checkpoint.NewReader(payload)
	s := &serverState{}
	s.NumClients = r.Int()
	s.Rounds = r.Int()
	s.Init = r.F64s()
	nSess := r.Int()
	if r.Err() == nil && (nSess < 0 || nSess > len(payload)) {
		return nil, fmt.Errorf("%w: session count %d", checkpoint.ErrCorrupt, nSess)
	}
	for i := 0; i < nSess && r.Err() == nil; i++ {
		s.Keys = append(s.Keys, r.String())
		s.Names = append(s.Names, r.String())
	}
	nHist := r.Int()
	if r.Err() == nil && (nHist < 0 || nHist > len(payload)) {
		return nil, fmt.Errorf("%w: history count %d", checkpoint.ErrCorrupt, nHist)
	}
	for i := 0; i < nHist && r.Err() == nil; i++ {
		s.History = append(s.History, wire.ReadGlobalBody(r))
	}
	s.PartialRounds = r.Int()
	if r.Bool() && r.Err() == nil {
		v := &validatorState{Strikes: r.Ints()}
		nQuar := r.Int()
		if r.Err() == nil && (nQuar < 0 || nQuar > len(payload)) {
			return nil, fmt.Errorf("%w: quarantine count %d", checkpoint.ErrCorrupt, nQuar)
		}
		for i := 0; i < nQuar && r.Err() == nil; i++ {
			v.Quar = append(v.Quar, r.Bool())
		}
		v.Norms = r.F64s()
		v.Ref = r.F64s()
		v.RefCount = r.Int()
		v.QuarRound = r.Ints()
		s.Validator = v
	}
	s.HistoryBase = r.Int()
	s.ShadowRound = r.Int()
	if b := r.String(); b != "" {
		s.Shadow = []byte(b)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if s.HistoryBase < 0 {
		return nil, fmt.Errorf("%w: negative history base %d", checkpoint.ErrCorrupt, s.HistoryBase)
	}
	if len(s.Keys) != len(s.Names) {
		return nil, fmt.Errorf("%w: inconsistent session table", checkpoint.ErrCorrupt)
	}
	return s, nil
}

// encodeWALGlobal encodes one emitted aggregate for the WAL, in the same
// body encoding the socket uses, into w (reset first, so a reused Writer
// encodes without allocating). The result aliases w.
func encodeWALGlobal(w *checkpoint.Writer, g *GlobalMsg) []byte {
	w.Reset()
	wire.AppendGlobalBody(w, g)
	return w.Bytes()
}

// decodeWALGlobal reads a global record back.
func decodeWALGlobal(payload []byte) (*GlobalMsg, error) {
	r := checkpoint.NewReader(payload)
	g := wire.ReadGlobalBody(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &g, nil
}

// loadStore loads the newest consistent generation from store, timing the
// load, and rolls it forward with recoverState. Returns nil state when the
// store is empty.
func (s *Server) loadStore(store *checkpoint.Store) (*serverState, error) {
	start := time.Now()
	rounds, payload, wal, found, err := store.Load()
	if err != nil {
		return nil, err
	}
	took := time.Since(start)
	s.storeM.loads.Inc()
	if !found {
		s.storeLog.Info("no checkpoint found, fresh start", "took", took)
		return nil, nil
	}
	s.storeM.loadsFound.Inc()
	s.storeM.snapshotRounds.Set(float64(rounds))
	s.storeM.replayRecords.Add(int64(len(wal)))
	s.storeLog.Info("checkpoint recovered", "rounds", rounds, "wal_records", len(wal), "took", took)
	return recoverState(payload, wal, s.cfg.root())
}

// appendCommit durably logs committed round g (a no-op without a store).
func (s *Server) appendCommit(g *GlobalMsg) error {
	if s.store == nil {
		return nil
	}
	rec := encodeWALGlobal(&s.walEnc, g)
	start := time.Now()
	n, err := s.store.Append(rec)
	if err != nil {
		return err
	}
	s.storeM.appends.Inc()
	s.storeM.walBytes.Add(int64(n))
	s.storeM.appendSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// rotate writes snapshot generation gen (a no-op without a store): the
// base snapshot once registration completes, then every SnapshotEvery
// commits and after every jump.
func (s *Server) rotate(gen int) error {
	if s.store == nil {
		return nil
	}
	snap := encodeServerState(&s.snapEnc, s.snapshotState())
	start := time.Now()
	n, err := s.store.WriteSnapshot(gen, snap)
	if err != nil {
		return err
	}
	took := time.Since(start)
	s.storeM.snapshots.Inc()
	s.storeM.snapshotRounds.Set(float64(gen))
	s.storeM.snapshotSeconds.Observe(took.Seconds())
	s.storeLog.Info("snapshot rotated", "rounds", gen, "bytes", n, "took", took)
	return nil
}

// recoverState decodes a loaded snapshot payload and rolls its WAL records
// forward: global records extend the aggregate history in round order.
// Nothing of the round left open by the crash was logged — it re-opens and
// the idempotent client (or relay) re-send repopulates it. rootTier
// disables the partial-round re-derivation for rolled-forward globals: on
// the root tier Participants counts underlying clients while NumClients
// counts relays, so the comparison is meaningless there (the live commit
// path records the flag correctly either way).
func recoverState(payload []byte, wal [][]byte, rootTier bool) (*serverState, error) {
	st, err := decodeServerState(payload)
	if err != nil {
		return nil, fmt.Errorf("transport: decode snapshot: %w", err)
	}
	for _, rec := range wal {
		g, err := decodeWALGlobal(rec)
		if err != nil {
			return nil, fmt.Errorf("transport: decode wal global: %w", err)
		}
		if g.Round != st.HistoryBase+len(st.History) {
			// Replays of rounds the snapshot already holds (or gaps,
			// which cannot happen with ordered appends) are skipped
			// rather than corrupting the history.
			continue
		}
		st.History = append(st.History, *g)
		if !rootTier && g.Participants < st.NumClients {
			st.PartialRounds++
		}
	}
	return st, nil
}

// verifyRecovered checks a recovered state against the configured run:
// a checkpoint from a different geometry (cluster size, round count,
// model) must never silently resume.
func verifyRecovered(st *serverState, cfg ServerConfig) error {
	if st.NumClients != cfg.peers() || st.Rounds != cfg.Rounds || len(st.Init) != len(cfg.Init) {
		return fmt.Errorf("transport: checkpoint geometry peers=%d rounds=%d dim=%d does not match config peers=%d rounds=%d dim=%d",
			st.NumClients, st.Rounds, len(st.Init), cfg.peers(), cfg.Rounds, len(cfg.Init))
	}
	for j := range st.Init {
		if st.Init[j] != cfg.Init[j] {
			return fmt.Errorf("transport: checkpoint init vector differs from config at scalar %d", j)
		}
	}
	if len(st.Keys) != st.NumClients {
		// The base snapshot is only written once registration completes,
		// so a valid checkpoint always carries the full session table.
		return fmt.Errorf("transport: checkpoint session table has %d entries for %d clients", len(st.Keys), st.NumClients)
	}
	if st.HistoryBase+len(st.History) > st.Rounds {
		return fmt.Errorf("transport: checkpoint history reaches round %d of a %d-round run",
			st.HistoryBase+len(st.History), st.Rounds)
	}
	if v := st.Validator; v != nil && (len(v.Strikes) != st.NumClients || len(v.Quar) != st.NumClients) {
		return fmt.Errorf("transport: checkpoint validator state covers %d strike / %d quarantine entries for %d clients",
			len(v.Strikes), len(v.Quar), st.NumClients)
	}
	return nil
}
