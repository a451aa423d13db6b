package transport

// Tests for the O(diff) resume subsystem: bounded history eviction,
// snapshot/sketch catch-up bit-exactness against the full-history replay,
// the long-partition matrix (severed {1,5,50,500} rounds across the three
// codecs), typed future-generation rejection, and catch-up from a
// kill-restarted durable coordinator.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apf/internal/chaos"
	"apf/internal/checkpoint"
	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/stats"
	"apf/internal/telemetry"
	"apf/internal/wire"
)

// resumeShadowConfig is the manager configuration shared by every resume
// test's clients and the server's shadow replica (Dim filled from Init).
func resumeShadowConfig() *core.Config {
	return &core.Config{CheckEveryRounds: 2, Threshold: 0.3, EMAAlpha: 0.85, Seed: 5}
}

// TestHistoryEvictionBounded drives 10k commits through a server with a
// 64-round history cap, checking that the retained window (and heap) stays
// flat, the eviction accounting matches, and the catch-up capture after
// eviction is bit-identical to an independently maintained manager replica
// of the full trajectory — the state a never-severed client would hold.
func TestHistoryEvictionBounded(t *testing.T) {
	const (
		dim    = 64
		rounds = 10000
		window = 64
	)
	reg := telemetry.New()
	init := make([]float64, dim)
	srv, err := NewServer(ServerConfig{
		Addr:          "127.0.0.1:0",
		NumClients:    2,
		Rounds:        rounds,
		Init:          init,
		HistoryRounds: window,
		Shadow:        resumeShadowConfig(),
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeQuietly(srv.ln)

	// Twin replica: the exact state a client applying every commit holds.
	tcfg := *resumeShadowConfig()
	tcfg.Dim = dim
	twin := core.NewManager(tcfg)
	tx := make([]float64, dim)

	var m0 runtime.MemStats
	for r := 0; r < rounds; r++ {
		payload := make([]float64, dim)
		for j := range payload {
			payload[j] = math.Sin(float64(r*dim + j))
		}
		g := &GlobalMsg{Round: r, Payload: payload, Participants: 2}
		if err := srv.commitRound(g, roundMeta{maskGen: -1}, false); err != nil {
			t.Fatalf("commit round %d: %v", r, err)
		}
		twin.PostIterate(r, tx)
		twin.ApplyDownload(r, tx, payload)
		if r == 200 {
			runtime.GC()
			runtime.ReadMemStats(&m0)
		}
	}

	if got := srv.CommittedRounds(); got != rounds {
		t.Fatalf("committed %d rounds, want %d", got, rounds)
	}
	srv.mu.Lock()
	histLen, histCap, base := len(srv.history), cap(srv.history), srv.histBase
	capture := srv.captureLocked()
	srv.mu.Unlock()
	if histLen != window || base != rounds-window {
		t.Errorf("retained %d rounds from base %d, want %d from %d",
			histLen, base, window, rounds-window)
	}
	if histCap > 2*window {
		t.Errorf("history capacity %d pins evicted rounds (window %d)", histCap, window)
	}
	if v := reg.Gauge("apf_history_rounds", "").Value(); v != window {
		t.Errorf("apf_history_rounds = %v, want %d", v, window)
	}
	if v := reg.Counter("apf_history_evicted_rounds_total", "").Value(); v != rounds-window {
		t.Errorf("evicted %d rounds, want %d", v, rounds-window)
	}

	// Steady-state memory: the window plus shadow is O(dim), so 9800 more
	// commits must not grow the heap meaningfully.
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if growth := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); growth > 8<<20 {
		t.Errorf("heap grew %d bytes across 9800 capped commits", growth)
	}

	// The capture a resuming client would receive equals the twin replica.
	if capture == nil {
		t.Fatal("no catch-up capture after eviction")
	}
	if capture.round != rounds-1 {
		t.Errorf("capture round %d, want %d", capture.round, rounds-1)
	}
	if capture.gen != twin.MaskGeneration() {
		t.Errorf("capture generation %d, twin %d", capture.gen, twin.MaskGeneration())
	}
	requireSameModel(t, "capture model vs twin replica", capture.x, tx)
	got := checkpoint.EncodeManager(capture.state)
	want := checkpoint.EncodeManager(twin.Snapshot())
	if !bytes.Equal(got, want) {
		t.Error("captured manager snapshot differs from the twin replica's")
	}
}

// TestSnapshotResumeAfterEviction runs a raw-framed catch-up end to end: a
// client absent past the history cap rejoins, is told to catch up, forces
// the snapshot mode, and must receive exactly the state an oracle manager
// obtains by replaying every committed aggregate — followed by the next
// committed round on the same connection (writer continuity).
func TestSnapshotResumeAfterEviction(t *testing.T) {
	const (
		dim    = 64
		rounds = 30
		window = 4
	)
	init := make([]float64, dim)
	for j := range init {
		init[j] = 0.01 * float64(j)
	}
	reg := telemetry.New()
	srv, err := NewServer(ServerConfig{
		Addr:          "127.0.0.1:0",
		NumClients:    3,
		Rounds:        rounds,
		Init:          init,
		IOTimeout:     5 * time.Second,
		RoundDeadline: 50 * time.Millisecond,
		MinClients:    2,
		HistoryRounds: window,
		Shadow:        resumeShadowConfig(),
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		serverErr <- err
	}()

	pay := func(i, r int) []float64 {
		p := make([]float64, dim)
		for j := range p {
			p[j] = math.Sin(float64((i+1)*1000 + r*31 + j))
		}
		return p
	}

	// Two always-on raw pushers; peer "late" observes two rounds and leaves.
	globals := make([][]float64, rounds)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		peer := dialRaw(t, srv.Addr().String())
		defer peer.conn.Close()
		peer.send(&JoinMsg{Name: fmt.Sprintf("act-%d", i), SessionKey: fmt.Sprintf("act-%d", i)})
		wg.Add(1)
		go func(i int, peer *rawPeer) {
			defer wg.Done()
			peer.welcome()
			for r := 0; r < rounds; r++ {
				peer.send(&UpdateMsg{Round: r, Payload: pay(i, r), Weight: 1})
				g := peer.global()
				if i == 0 {
					globals[r] = append([]float64(nil), g.Payload...)
				}
			}
		}(i, peer)
	}
	late := dialRaw(t, srv.Addr().String())
	late.send(&JoinMsg{Name: "late", SessionKey: "late"})
	late.welcome()
	late.global()
	late.global() // applied rounds 0 and 1
	closeQuietly(late.conn)

	for srv.CommittedRounds() < 20 {
		time.Sleep(5 * time.Millisecond)
	}

	// Rejoin: round 1 fell off the 4-round window, so the welcome demands
	// catch-up; MaskGen -1 forces the snapshot mode.
	late = dialRaw(t, srv.Addr().String())
	defer late.conn.Close()
	late.send(&JoinMsg{Name: "late", SessionKey: "late", HaveRound: 1})
	w := late.welcome()
	if !w.Resumed || !w.CatchUp || len(w.Missed) != 0 || w.MaskGen < 0 {
		t.Fatalf("welcome resumed=%v catchup=%v missed=%d gen=%d, want catch-up with no replay",
			w.Resumed, w.CatchUp, len(w.Missed), w.MaskGen)
	}
	late.send(&ResumeOfferMsg{Round: 1, MaskGen: -1})
	snap, ok := late.recv().(*SnapshotMsg)
	if !ok {
		t.Fatal("expected a snapshot frame")
	}
	if snap.Round < 19 || snap.MaskGen != w.MaskGen || len(snap.Manager) == 0 {
		t.Fatalf("snapshot round=%d gen=%d manager=%dB", snap.Round, snap.MaskGen, len(snap.Manager))
	}
	// The same connection's sequential stream continues right after the
	// snapshot round.
	if g := late.global(); g.Round != snap.Round+1 {
		t.Fatalf("post-snapshot stream starts at round %d, want %d", g.Round, snap.Round+1)
	}
	for r := snap.Round + 2; r < rounds; r++ {
		late.global()
	}

	wg.Wait()
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}

	// Oracle: replay every committed aggregate through a fresh manager; the
	// snapshot must be bit-identical at the captured round — O(dim) bytes
	// bought the exact replay state.
	ocfg := *resumeShadowConfig()
	ocfg.Dim = dim
	oracle := core.NewManager(ocfg)
	ox := make([]float64, dim)
	for r := 0; r <= snap.Round; r++ {
		oracle.PostIterate(r, ox)
		oracle.ApplyDownload(r, ox, globals[r])
	}
	requireSameModel(t, "snapshot vs replay oracle", snap.Payload, ox)
	if snap.MaskGen != oracle.MaskGeneration() {
		t.Errorf("snapshot generation %d, oracle %d", snap.MaskGen, oracle.MaskGeneration())
	}
	if !bytes.Equal(snap.Manager, checkpoint.EncodeManager(oracle.Snapshot())) {
		t.Error("snapshot manager state differs from the replay oracle's")
	}
	if v := srv.metrics.resumeSnapshot.Value(); v != 1 {
		t.Errorf("resume snapshot count %d, want 1", v)
	}
	if v := srv.metrics.resumeReplay.Value(); v != 0 {
		t.Errorf("resume replay count %d, want 0", v)
	}
}

// resumeTwinOpts parameterizes one arm of a resume twin run: a 3-client
// cluster where shard 2 severs after applying round 1, sits out `absent`
// rounds, resumes through whichever path the server's history bound
// dictates, and records its reconciled model. history 0 is the replay
// oracle arm; kill additionally crashes a durable server mid-absence and
// restarts it.
type resumeTwinOpts struct {
	codec    wire.Codec
	absent   int
	history  int
	deadline time.Duration
	factory  fl.ManagerFactory // nil = apfChaosFactory, with a server shadow
	kill     bool
}

// resumeRecord is what the severed shard saw at reconciliation.
type resumeRecord struct {
	round int
	model []float64
}

const resumeSeverRound = 1

// gatedDialer holds a client's re-dial until the gate reports true, and
// remembers the live connection so the test can sever it on cue.
type gatedDialer struct {
	ctx   context.Context
	gate  func() bool
	mu    sync.Mutex
	conn  net.Conn
	dials int
}

func (gd *gatedDialer) dial(network, addr string) (net.Conn, error) {
	gd.mu.Lock()
	n := gd.dials
	gd.dials++
	gd.mu.Unlock()
	if n > 0 {
		for !gd.gate() {
			select {
			case <-gd.ctx.Done():
				return nil, gd.ctx.Err()
			case <-time.After(time.Millisecond):
			}
		}
	}
	c, err := net.DialTimeout(network, addr, 5*time.Second)
	if err == nil {
		gd.mu.Lock()
		gd.conn = c
		gd.mu.Unlock()
	}
	return c, err
}

func (gd *gatedDialer) kill() {
	gd.mu.Lock()
	defer gd.mu.Unlock()
	if gd.conn != nil {
		closeQuietly(gd.conn)
	}
}

// runResumeTwin runs one arm and returns the shard's reconciliation
// record, the two active clients' final models, and the server metrics
// registry. Absence rounds aggregate exactly the two actives (MinClients
// floor at the deadline), so the committed trajectory is deterministic and
// arms differing only in the history bound are bit-comparable.
func runResumeTwin(t *testing.T, o resumeTwinOpts) (resumeRecord, [][]float64, *telemetry.Registry) {
	t.Helper()
	gate := resumeSeverRound + 1 + o.absent // committed rounds before the shard re-dials
	rounds := gate + 2
	recordAt := gate - 1

	ds := data.SynthImages(data.ImageConfig{Classes: 3, Channels: 1, Size: 6, Samples: 90, NoiseStd: 0.5, Seed: 5})
	parts := data.PartitionIID(stats.SplitRNG(5, 50), ds.Len(), 3)
	init := nn.FlattenParams(tinyModel(stats.SplitRNG(5, 99)).Params(), nil)
	factory := o.factory
	var shadow *core.Config
	if factory == nil {
		factory = apfChaosFactory
		shadow = resumeShadowConfig()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	reg := telemetry.New()

	dir := ""
	var script *chaos.Script
	var inner net.Listener
	if o.kill {
		dir = t.TempDir()
		killAt := resumeSeverRound + 1 + o.absent/2
		script = chaos.NewScript(31, chaos.Fault{Round: killAt, Kind: chaos.KillServer})
		var err error
		if inner, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	mkServer := func(ln net.Listener, addr string) *Server {
		t.Helper()
		srv, err := NewServer(ServerConfig{
			Addr:          addr,
			Listener:      ln,
			NumClients:    3,
			Rounds:        rounds,
			Init:          init,
			IOTimeout:     5 * time.Second,
			RoundDeadline: o.deadline,
			MinClients:    2,
			Codec:         o.codec,
			HistoryRounds: o.history,
			Shadow:        shadow,
			CheckpointDir: dir,
			SnapshotEvery: 3,
			Metrics:       reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	var cur atomic.Pointer[Server]
	var srv *Server
	srvCtx, killSrv := context.WithCancel(ctx)
	defer killSrv()
	if o.kill {
		script.SetOnKill(killSrv)
		srv = mkServer(script.Listener(inner), "")
	} else {
		srv = mkServer(nil, "127.0.0.1:0")
	}
	cur.Store(srv)
	addr := srv.Addr().String()
	srv1Err := make(chan error, 1)
	go func() {
		_, err := srv.Run(srvCtx)
		srv1Err <- err
	}()

	shardCtx, shardCancel := context.WithCancel(ctx)
	defer shardCancel()
	gd := &gatedDialer{ctx: shardCtx, gate: func() bool { return cur.Load().CommittedRounds() >= gate }}
	var rec resumeRecord
	var once sync.Once
	caught := make(chan struct{})
	release := make(chan struct{})

	results := make([]*ClientResult, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	shardDone := make(chan struct{})
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("rsm-%d", i)
		cfg := ClientConfig{
			Addr:           addr,
			Name:           name,
			SessionKey:     name,
			Model:          tinyModel,
			Optimizer:      tinySGD,
			Manager:        factory,
			Data:           ds,
			Indices:        parts[i],
			LocalIters:     3,
			BatchSize:      10,
			Seed:           5,
			Codec:          o.codec,
			MaxRetries:     60,
			RetryBaseDelay: 10 * time.Millisecond,
			RetryMaxDelay:  100 * time.Millisecond,
		}
		if i == 2 {
			cfg.Dial = gd.dial
			cfg.OnRound = func(round int, model []float64) {
				if round == resumeSeverRound {
					gd.kill()
					return
				}
				if round >= recordAt {
					once.Do(func() {
						rec = resumeRecord{round: round, model: append([]float64(nil), model...)}
						close(caught)
					})
					<-release
				}
			}
			go func() {
				defer close(shardDone)
				results[2], errs[2] = RunClient(shardCtx, cfg)
			}()
		} else {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = RunClient(ctx, cfg)
			}(i)
		}
		time.Sleep(100 * time.Millisecond)
	}

	if o.kill {
		if err := <-srv1Err; err == nil {
			t.Fatal("server survived the scripted kill")
		}
		srv2 := mkServer(nil, addr)
		cur.Store(srv2)
		srv = srv2
		srv1Err = make(chan error, 1)
		go func() {
			_, err := srv2.Run(ctx)
			srv1Err <- err
		}()
	}

	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("active client %d: %v", i, errs[i])
		}
	}
	if err := <-srv1Err; err != nil {
		t.Fatalf("server: %v", err)
	}
	select {
	case <-caught:
	default:
		t.Fatal("severed shard never reconciled")
	}
	shardCancel()
	close(release)
	<-shardDone

	return rec, [][]float64{results[0].FinalModel, results[1].FinalModel}, reg
}

// counterValue reads a labeled counter out of a registry (registration
// dedupes, so this returns the live instance the server incremented).
func counterValue(reg *telemetry.Registry, name string, labels ...string) int64 {
	return reg.Counter(name, "", labels...).Value()
}

// requireTwinMatch compares a capped arm against its replay oracle: the
// severed shard's reconciled round and model, and both actives' final
// models (catch-up must not perturb the server trajectory).
func requireTwinMatch(t *testing.T, capped, oracle resumeRecord, cappedFinals, oracleFinals [][]float64) {
	t.Helper()
	if capped.round != oracle.round {
		t.Fatalf("reconciled at round %d, oracle at %d (timing margin breached)",
			capped.round, oracle.round)
	}
	requireSameModel(t, "severed shard vs replay oracle", capped.model, oracle.model)
	for i := range cappedFinals {
		requireSameModel(t, fmt.Sprintf("active %d vs oracle", i), cappedFinals[i], oracleFinals[i])
	}
}

// TestResumeLongPartitionMatrix is the long-partition chaos matrix: a
// shard severed for {1, 5, 50} rounds under each wire codec must resume
// bit-identically to a never-evicting replay twin, through whichever path
// the history bound selects — replay when the window still covers the
// absence, sketch reconciliation once it does not. (The 500-round severed
// snapshot cell is TestResumeLongPartitionSnapshot500.)
func TestResumeLongPartitionMatrix(t *testing.T) {
	cells := []struct {
		name    string
		codec   wire.Codec
		absent  int
		history int
		d       time.Duration
		mode    string
	}{
		{"dense-sever1-replay", wire.CodecDense, 1, 8, 150 * time.Millisecond, "replay"},
		{"dense-sever5-sketch", wire.CodecDense, 5, 2, 120 * time.Millisecond, "sketch"},
		{"dense-sever50-sketch", wire.CodecDense, 50, 2, 50 * time.Millisecond, "sketch"},
		{"sparse-sever5-sketch", wire.CodecSparse, 5, 2, 120 * time.Millisecond, "sketch"},
		{"sparseq16-sever5-sketch", wire.CodecSparseQ16, 5, 2, 120 * time.Millisecond, "sketch"},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			base := resumeTwinOpts{codec: c.codec, absent: c.absent, deadline: c.d}
			oracle, oracleFinals, oreg := runResumeTwin(t, base)
			capped := base
			capped.history = c.history
			got, gotFinals, reg := runResumeTwin(t, capped)

			requireTwinMatch(t, got, oracle, gotFinals, oracleFinals)
			if v := counterValue(oreg, "apf_resume_mode_total", "mode", "replay"); v < 1 {
				t.Errorf("oracle arm resumed %d times via replay, want >= 1", v)
			}
			if v := counterValue(reg, "apf_resume_mode_total", "mode", c.mode); v < 1 {
				t.Errorf("capped arm used mode %q %d times, want >= 1", c.mode, v)
			}
			if c.mode == "sketch" {
				if v := counterValue(reg, "apf_resume_mode_total", "mode", "snapshot"); v != 0 {
					t.Errorf("sketch cell fell back to %d snapshots", v)
				}
			}
		})
	}
}

// TestResumeLongPartitionSnapshot500 is the matrix's deep cell: a shard
// severed for 500 rounds on a server whose shadowless, 8-round history
// forces the stateless snapshot path. The two active pushers are raw
// framed peers sequenced through the accepted-updates counter, so round
// membership — all three in rounds 0–1, the two actives for every round
// after the sever — is identical across both arms by construction.
func TestResumeLongPartitionSnapshot500(t *testing.T) {
	if testing.Short() {
		t.Skip("500-round partition twin takes ~10s")
	}
	const absent = 500
	gate := resumeSeverRound + 1 + absent
	rounds := gate + 1
	recordAt := gate - 1
	d := 10 * time.Millisecond

	ds := data.SynthImages(data.ImageConfig{Classes: 3, Channels: 1, Size: 6, Samples: 90, NoiseStd: 0.5, Seed: 5})
	parts := data.PartitionIID(stats.SplitRNG(5, 50), ds.Len(), 3)
	init := nn.FlattenParams(tinyModel(stats.SplitRNG(5, 99)).Params(), nil)
	dim := len(init)
	pay := func(i, r int) []float64 {
		p := make([]float64, dim)
		for j := range p {
			p[j] = 0.1 * math.Sin(float64((i+1)*1000+r*31+j))
		}
		return p
	}

	run := func(history int) (resumeRecord, [][]float64, *telemetry.Registry) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		reg := telemetry.New()
		srv, err := NewServer(ServerConfig{
			Addr:          "127.0.0.1:0",
			NumClients:    3,
			Rounds:        rounds,
			Init:          init,
			IOTimeout:     10 * time.Second,
			RoundDeadline: d,
			MinClients:    2,
			HistoryRounds: history,
			Metrics:       reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		serverErr := make(chan error, 1)
		go func() {
			_, err := srv.Run(ctx)
			serverErr <- err
		}()
		accepted := reg.Counter("apf_updates_total", "", "result", "accepted")

		var rec resumeRecord
		var once sync.Once
		caught := make(chan struct{})
		release := make(chan struct{})

		// Raw actives: in the two full rounds they push only after the
		// shard's update of that round was accepted, pinning membership.
		var wg sync.WaitGroup
		trajectories := make([][][]float64, 2)
		for i := 0; i < 2; i++ {
			peer := dialRaw(t, srv.Addr().String())
			defer closeQuietly(peer.conn)
			peer.send(&JoinMsg{Name: fmt.Sprintf("raw-%d", i), SessionKey: fmt.Sprintf("raw-%d", i)})
			wg.Add(1)
			go func(i int, peer *rawPeer) {
				defer wg.Done()
				peer.welcome()
				for r := 0; r < rounds; r++ {
					if r <= resumeSeverRound {
						for accepted.Value() < int64(3*r+1) {
							time.Sleep(time.Millisecond)
						}
					}
					if r == rounds-1 {
						// Hold the final round open until the shard has
						// reconciled: the server exits with the last commit,
						// and under the race detector the shard's catch-up
						// conversation can outlast a single 10ms round. The
						// shard records (and parks) before pushing anything,
						// so the hold changes no round's membership.
						select {
						case <-caught:
						case <-ctx.Done():
						}
					}
					peer.send(&UpdateMsg{Round: r, Payload: pay(i, r), Weight: 1})
					g := peer.global()
					trajectories[i] = append(trajectories[i], append([]float64(nil), g.Payload...))
				}
			}(i, peer)
			time.Sleep(100 * time.Millisecond)
		}

		shardCtx, shardCancel := context.WithCancel(ctx)
		defer shardCancel()
		gd := &gatedDialer{ctx: shardCtx, gate: func() bool { return srv.CommittedRounds() >= gate }}
		shardDone := make(chan struct{})
		var shardErr error
		go func() {
			defer close(shardDone)
			_, shardErr = RunClient(shardCtx, ClientConfig{
				Addr:       srv.Addr().String(),
				Name:       "shard",
				SessionKey: "shard",
				Model:      tinyModel,
				Optimizer:  tinySGD,
				Manager: func(_, dim int) fl.SyncManager {
					return fl.NewPassthroughManager(8)
				},
				Data:           ds,
				Indices:        parts[2],
				LocalIters:     3,
				BatchSize:      10,
				Seed:           5,
				MaxRetries:     60,
				RetryBaseDelay: 10 * time.Millisecond,
				RetryMaxDelay:  100 * time.Millisecond,
				Dial:           gd.dial,
				OnRound: func(round int, model []float64) {
					if round == resumeSeverRound {
						gd.kill()
						return
					}
					if round >= recordAt {
						once.Do(func() {
							rec = resumeRecord{round: round, model: append([]float64(nil), model...)}
							close(caught)
						})
						<-release
					}
				},
			})
		}()

		wg.Wait()
		if err := <-serverErr; err != nil {
			t.Fatalf("server: %v", err)
		}
		select {
		case <-caught:
		default:
			t.Fatal("severed shard never reconciled")
		}
		shardCancel()
		close(release)
		<-shardDone
		_ = shardErr // severed-then-cancelled; its record is the assertion
		finals := [][]float64{
			trajectories[0][len(trajectories[0])-1],
			trajectories[1][len(trajectories[1])-1],
		}
		return rec, finals, reg
	}

	oracle, oracleFinals, _ := run(0)
	capped, cappedFinals, reg := run(8)
	requireTwinMatch(t, capped, oracle, cappedFinals, oracleFinals)
	if v := counterValue(reg, "apf_resume_mode_total", "mode", "snapshot"); v < 1 {
		t.Errorf("capped arm served %d snapshots, want >= 1", v)
	}
	// Snapshot cost is flat in the absence: the conversation is one offer
	// and one O(dim) frame regardless of the 500 missing rounds.
	if h := reg.Histogram("apf_catchup_bytes", "", nil); h.Count() > 0 {
		limit := float64(snapshotPayloadLimit(dim))
		if avg := h.Sum() / float64(h.Count()); avg > limit {
			t.Errorf("catch-up averaged %.0f bytes, over the O(dim) bound %.0f", avg, limit)
		}
	}
}

// TestResumeKillRestartDuringCatchUpWindow crashes a durable, bounded-
// history coordinator in the middle of a shard's 20-round absence. The
// restarted server recovers its shadow replica from the checkpoint and
// WAL, evicts to the same window, and must still reconcile the returning
// shard — and finish the run — bit-identically to an unkilled,
// unbounded-history twin.
func TestResumeKillRestartDuringCatchUpWindow(t *testing.T) {
	base := resumeTwinOpts{codec: wire.CodecDense, absent: 20, deadline: 100 * time.Millisecond}
	oracle, oracleFinals, _ := runResumeTwin(t, base)

	killed := base
	killed.history = 3
	killed.kill = true
	got, gotFinals, reg := runResumeTwin(t, killed)

	requireTwinMatch(t, got, oracle, gotFinals, oracleFinals)
	if v := counterValue(reg, "apf_resume_mode_total", "mode", "sketch"); v < 1 {
		t.Errorf("restarted server served %d sketch catch-ups, want >= 1 (shadow not recovered?)", v)
	}
}

// TestCatchUpFutureGenerationRejected covers the typed rejection on both
// sides: a server refusing a resume offer whose mask generation is ahead
// of its capture (at the opening and mid-sketch), and a stateful client
// failing fast — not retrying — when a shadowless server offers catch-up
// below the client's own generation.
func TestCatchUpFutureGenerationRejected(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		srv := startServer(t, 1, 1)
		defer closeQuietly(srv.ln)
		cfg := *resumeShadowConfig()
		cfg.Dim = 128
		mgr := core.NewManager(cfg)
		cap := &catchupCapture{
			cfg:   cfg,
			round: 10,
			gen:   mgr.MaskGeneration(),
			x:     make([]float64, cfg.Dim),
			state: mgr.Snapshot(),
		}

		exchange := func(drive func(peer net.Conn) error) error {
			t.Helper()
			peer, end := net.Pipe()
			defer closeQuietly(peer)
			defer closeQuietly(end)
			peerErr := make(chan error, 1)
			go func() { peerErr <- drive(peer) }()
			_, err := srv.runCatchup(&countingConn{Conn: end}, cap)
			if perr := <-peerErr; perr != nil {
				t.Fatalf("peer: %v", perr)
			}
			return err
		}

		// Ahead at the opening offer.
		err := exchange(func(peer net.Conn) error {
			return writeMsg(peer, 2*time.Second, &ResumeOfferMsg{Round: 3, MaskGen: cap.gen + 1}, nil)
		})
		if !errors.Is(err, ErrFutureGeneration) {
			t.Errorf("opening offer ahead: got %v, want ErrFutureGeneration", err)
		}

		// Ahead mid-sketch: open honestly, then claim a future generation
		// in the continuation offer.
		err = exchange(func(peer net.Conn) error {
			if err := writeMsg(peer, 2*time.Second, &ResumeOfferMsg{Round: 3, MaskGen: cap.gen}, nil); err != nil {
				return err
			}
			m, err := readMsg(peer, 2*time.Second, wire.MaxPayload, nil)
			if err != nil {
				return err
			}
			if _, ok := m.(*SketchMsg); !ok {
				return fmt.Errorf("expected sketch cells, got %s", m.WireKind())
			}
			return writeMsg(peer, 2*time.Second,
				&ResumeOfferMsg{Round: 3, MaskGen: cap.gen + 7, NeedMore: true}, nil)
		})
		if !errors.Is(err, ErrFutureGeneration) {
			t.Errorf("mid-sketch offer ahead: got %v, want ErrFutureGeneration", err)
		}
	})

	t.Run("client", func(t *testing.T) {
		// A stateful client offered a stateless catch-up (generation -1,
		// e.g. a rolled-back or shadowless server behind its own clients)
		// must refuse it with the typed error instead of adopting a
		// regressed replica. The server side is scripted: serve two honest
		// rounds, sever, then resume with a catch-up welcome at gen -1.
		ds := data.SynthImages(data.ImageConfig{Classes: 3, Channels: 1, Size: 6, Samples: 90, NoiseStd: 0.5, Seed: 5})
		parts := data.PartitionIID(stats.SplitRNG(5, 50), ds.Len(), 3)
		init := nn.FlattenParams(tinyModel(stats.SplitRNG(5, 99)).Params(), nil)
		dim := len(init)

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer closeQuietly(ln)
		const ioT = 5 * time.Second
		serverErr := make(chan error, 1)
		go func() {
			serverErr <- func() error {
				// Session 1: register and serve rounds 0 and 1 in lockstep.
				conn, err := ln.Accept()
				if err != nil {
					return err
				}
				if _, err := readMsg(conn, ioT, wire.MaxPayload, nil); err != nil {
					return fmt.Errorf("join 1: %w", err)
				}
				w := &WelcomeMsg{ClientID: 0, NumClients: 1, Rounds: 20, Dim: dim, Init: init}
				if err := writeMsg(conn, ioT, w, nil); err != nil {
					return fmt.Errorf("welcome 1: %w", err)
				}
				for r := 0; r < 2; r++ {
					if _, err := readMsg(conn, ioT, wire.MaxPayload, nil); err != nil {
						return fmt.Errorf("update %d: %w", r, err)
					}
					g := &GlobalMsg{Round: r, Payload: init, Participants: 1}
					if err := writeMsg(conn, ioT, g, nil); err != nil {
						return fmt.Errorf("global %d: %w", r, err)
					}
				}
				// Wait for the round-2 push so the client has demonstrably
				// applied round 1, then sever.
				if _, err := readMsg(conn, ioT, wire.MaxPayload, nil); err != nil {
					return fmt.Errorf("update 2: %w", err)
				}
				closeQuietly(conn)

				// Session 2: resume into a stateless catch-up.
				conn, err = ln.Accept()
				if err != nil {
					return err
				}
				m, err := readMsg(conn, ioT, wire.MaxPayload, nil)
				if err != nil {
					return fmt.Errorf("join 2: %w", err)
				}
				join, ok := m.(*JoinMsg)
				if !ok || join.HaveRound != 1 {
					return fmt.Errorf("expected a resume join for round 1, got %#v", m)
				}
				w2 := &WelcomeMsg{
					ClientID: 0, NumClients: 1, Rounds: 20, Dim: dim, Init: init,
					Round: 8, Resumed: true, CatchUp: true, MaskGen: -1,
				}
				if err := writeMsg(conn, ioT, w2, nil); err != nil {
					return fmt.Errorf("welcome 2: %w", err)
				}
				// The client must fail fast without opening the catch-up
				// conversation: the next read sees only the hangup.
				if m, err := readMsg(conn, ioT, wire.MaxPayload, nil); err == nil {
					return fmt.Errorf("client sent %s instead of failing fast", m.WireKind())
				}
				closeQuietly(conn)
				return nil
			}()
		}()

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, err = RunClient(ctx, ClientConfig{
			Addr:           ln.Addr().String(),
			Name:           "fg",
			SessionKey:     "fg",
			Model:          tinyModel,
			Optimizer:      tinySGD,
			Manager:        apfChaosFactory,
			Data:           ds,
			Indices:        parts[0],
			LocalIters:     1,
			BatchSize:      10,
			Seed:           5,
			MaxRetries:     3,
			RetryBaseDelay: 10 * time.Millisecond,
			RetryMaxDelay:  20 * time.Millisecond,
		})
		if !errors.Is(err, ErrFutureGeneration) {
			t.Errorf("stateful client on a stateless catch-up: got %v, want ErrFutureGeneration", err)
		}
		if err := <-serverErr; err != nil {
			t.Fatalf("scripted server: %v", err)
		}
	})
}

// TestResumedWelcomeOmitsInit: a peer that has applied a round never reads
// the initial model, so its resumed Welcome frame stays far below one
// model's worth of bytes. (The other arm — a restarted process joining with
// no applied round still receives it — is TestFreshProcessResumeBitExact.)
func TestResumedWelcomeOmitsInit(t *testing.T) {
	const dim = 4096
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 1, Rounds: 3, Init: make([]float64, dim),
		RoundDeadline: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go srv.Run(ctx)

	join := func(haveRound int) (*rawPeer, *WelcomeMsg) {
		t.Helper()
		peer := dialRaw(t, srv.Addr().String())
		t.Cleanup(func() { peer.conn.Close() })
		peer.send(&JoinMsg{Name: "p", SessionKey: "p", HaveRound: haveRound})
		return peer, peer.welcome()
	}
	peer, _ := join(-1)
	peer.send(&UpdateMsg{Round: 0, Payload: make([]float64, dim), Weight: 1})
	peer.global()

	_, resumed := join(0)
	if !resumed.Resumed || len(resumed.Init) != 0 {
		t.Fatalf("resume at round 0: resumed=%v init=%d, want a resumed welcome without init",
			resumed.Resumed, len(resumed.Init))
	}
	if n := len(wire.Encode(resumed)); n >= 8*dim {
		t.Fatalf("resumed welcome frame is %d bytes, want well under one model (%d)", n, 8*dim)
	}
}

// TestFreshProcessResumeBitExact restarts the client process mid-run: the
// replacement knows only its session key, joins with no applied round,
// rebuilds its model from the Welcome's initial model plus the missed
// aggregates, and ends on exactly the model of a twin that never
// restarted. (A single-sample shard and momentum-free SGD make the
// client's trajectory a function of the synchronized model alone.)
func TestFreshProcessResumeBitExact(t *testing.T) {
	const rounds, restartAfter = 6, 2
	ds, parts, init := singleSampleSetup(1)
	run := func(restart bool) []float64 {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv, err := NewServer(ServerConfig{
			Addr: "127.0.0.1:0", NumClients: 1, Rounds: rounds, Init: init,
			RoundDeadline: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		serverErr := make(chan error, 1)
		go func() {
			_, err := srv.Run(ctx)
			serverErr <- err
		}()
		cfg := ClientConfig{
			Addr: srv.Addr().String(), Name: "fp", SessionKey: "fp",
			Model: tinyModel, Optimizer: tinySGD,
			Manager: func(clientID, dim int) fl.SyncManager { return fl.NewPassthroughManager(4) },
			Data:    ds, Indices: parts[0], LocalIters: 3, BatchSize: 1, Seed: 5,
		}
		if restart {
			// First process: dies once it has applied round restartAfter.
			procCtx, die := context.WithCancel(ctx)
			cfg.OnRound = func(round int, _ []float64) {
				if round == restartAfter {
					die()
				}
			}
			if _, err := RunClient(procCtx, cfg); err == nil {
				t.Fatal("first process finished the run; it was never killed")
			}
			cfg.OnRound = nil
		}
		res, err := RunClient(ctx, cfg)
		if err != nil {
			t.Fatalf("restart=%v client: %v", restart, err)
		}
		if restart && res.Reconnects != 1 {
			t.Fatalf("replacement process resumed %d times, want 1", res.Reconnects)
		}
		if err := <-serverErr; err != nil {
			t.Fatalf("restart=%v server: %v", restart, err)
		}
		return res.FinalModel
	}
	requireSameModel(t, "restarted client vs never-restarted twin", run(true), run(false))
}
