package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"apf/internal/fl"
	"apf/internal/telemetry"
	"apf/internal/transport"
)

// evalPoint is a copy of the global model taken in client 0's OnRound hook,
// scored after the episode.
type evalPoint struct {
	round int
	at    time.Time
	bytes int64 // client 0's wire bytes when the round was applied
	model []float64
}

// episodeResult is what one episode — one cluster built, run for a fixed
// number of rounds and torn down — measured.
type episodeResult struct {
	in      *inputs   // what the episode fed the program
	setupS  float64   // episode start → end of the warm-up rounds
	gapsMs  []float64 // client 0's gaps between applied rounds, measured window
	windowS float64
	cpuS    float64 // process user+sys over the window
	// wireBytes is Server.WireBytes() read+sent of every tier over the whole
	// episode; with the fixed round count it repeats exactly per seed.
	wireBytes int64
	failed    int // rejected updates + partial rounds, all tiers
	final     []float64
	hash      uint64
	joined    time.Time // registration complete: round 0 starts
	evals     []evalPoint
	trace     *traceData // nil on a timed run
}

// traceData is the extra a traced episode keeps for the per-layer table.
type traceData struct {
	tr *tracer
	// edge is the registry snapshot of the tier clients attach to: the flat
	// server, or both relays.
	edge          map[string]float64
	tapBytes      int64 // what the tiers' tapped connections carried, both ways
	upstreamBytes int64 // Relay.UpstreamBytes of every relay
	rootBytes     int64 // the root's Server.WireBytes
	mem0, mem1    runtime.MemStats
	reconnects    int
	frozen        []float64 // client 0's frozen fraction per measured round
	maskGens      int
}

func hashModel(v []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// tier is a running server, relay or root.
type tier struct {
	name   string
	srv    func() *transport.Server // valid once run returned
	relay  *transport.Relay
	global []float64
}

// runEpisode builds the workload's loopback cluster from public transport
// APIs, runs warm-up plus measured rounds, tears it down and checks that
// every participant ended on the same model. With traced set it wraps the
// injectables (manager factory, dialers, listeners, telemetry registries);
// otherwise the only hooks are client 0's OnRound timestamp, the
// registration signal that staggers joins, and the churn clients' sever.
func runEpisode(s spec, seed int64, traced bool, tmpRoot string) (*episodeResult, error) {
	start := time.Now()
	in, err := buildInputs(s, seed)
	if err != nil {
		return nil, err
	}
	total := s.total()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	var tr *tracer
	var edgeReg *telemetry.Registry
	if traced {
		tr = newTracer(s.Warmup + s.Rounds/2)
		edgeReg = telemetry.New()
	}
	// listen binds a loopback port; a traced run taps its connections.
	var tierEps []*endpoint
	listen := func(edge bool) (net.Listener, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil || !traced {
			return ln, err
		}
		ep := newEndpoint(-1, tr)
		ep.edge = edge
		tierEps = append(tierEps, ep)
		return &tapListener{Listener: ln, ep: ep}, nil
	}

	// failed receives the first error of any tier or client, so the join
	// stagger below never waits on a cluster that already fell over.
	failed := make(chan error, 1+s.Relays+s.Clients)
	await := func(ep *endpoint, what string) error {
		select {
		case <-ep.welcomed:
			return nil
		case err := <-failed:
			return err
		case <-time.After(30 * time.Second):
			return fmt.Errorf("bench: %s did not register within 30s", what)
		}
	}

	var tiers []*tier
	var tierWG sync.WaitGroup
	runTier := func(t *tier, run func(context.Context) ([]float64, error)) {
		tiers = append(tiers, t)
		tierWG.Add(1)
		go func() {
			defer tierWG.Done()
			var err error
			if t.global, err = run(ctx); err != nil {
				failed <- fmt.Errorf("%s: %w", t.name, err)
			}
		}()
	}
	// stop tears the cluster down on an error path.
	stop := func(err error) (*episodeResult, error) {
		cancel()
		tierWG.Wait()
		return nil, err
	}

	scfg := transport.ServerConfig{
		Rounds: total, Init: in.init, Codec: in.codec, HistoryRounds: s.HistoryRounds,
	}
	if s.Validate {
		scfg.Validator = &transport.ValidatorConfig{}
	}
	if s.Durable {
		dir, err := os.MkdirTemp(tmpRoot, "ckpt-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		scfg.CheckpointDir = dir
	}

	// clientAddr[i] is where launch slot i dials.
	clientAddr := make([]string, s.Clients)
	if s.Relays == 0 {
		ln, err := listen(true)
		if err != nil {
			return nil, err
		}
		scfg.Listener, scfg.NumClients, scfg.Metrics = ln, s.Clients, edgeReg
		srv, err := transport.NewServer(scfg)
		if err != nil {
			return nil, err
		}
		runTier(&tier{name: "server", srv: func() *transport.Server { return srv }}, srv.Run)
		for i := range clientAddr {
			clientAddr[i] = srv.Addr().String()
		}
	} else {
		ln, err := listen(false)
		if err != nil {
			return nil, err
		}
		scfg.Listener, scfg.Relays = ln, s.Relays
		root, err := transport.NewServer(scfg)
		if err != nil {
			return nil, err
		}
		runTier(&tier{name: "root", srv: func() *transport.Server { return root }}, root.Run)
		perRelay := s.Clients / s.Relays
		for i := 0; i < s.Relays; i++ {
			ln, err := listen(true)
			if err != nil {
				return stop(err)
			}
			up := newEndpoint(-1, tr)
			name := fmt.Sprintf("relay-%d", i)
			rel, err := transport.NewRelay(transport.RelayConfig{
				Listener: ln, Upstream: root.Addr().String(), Name: name, SessionKey: name,
				NumClients: perRelay, Codec: in.codec, HistoryRounds: s.HistoryRounds,
				// The deadline only makes the edge tolerate its churn
				// client's reconnects; it must never fire.
				RoundDeadline: 10 * time.Second,
				MaxRetries:    3, Dial: up.dial, Seed: seed, Metrics: edgeReg,
			})
			if err != nil {
				return stop(err)
			}
			runTier(&tier{name: name, srv: rel.Server, relay: rel}, rel.Run)
			// Relay ids follow launch order: the next relay dials only
			// after this one holds the root's Welcome.
			if err := await(up, name); err != nil {
				return stop(err)
			}
			for c := 0; c < perRelay; c++ {
				clientAddr[i*perRelay+c] = rel.Addr().String()
			}
		}
	}

	// Client 0's OnRound hook is the benchmark's clock.
	res := &episodeResult{in: in}
	stamps := make([]time.Time, total)
	var cpu0, cpu1 float64
	var td *traceData
	if traced {
		td = &traceData{tr: tr}
		res.trace = td
	}
	var manager0 fl.SyncManager
	eps := make([]*endpoint, s.Clients)
	onRound0 := func(round int, model []float64) {
		now := time.Now()
		stamps[round] = now
		switch round {
		case s.Warmup - 1:
			cpu0 = cpuSeconds()
			if traced {
				runtime.ReadMemStats(&td.mem0)
			}
		case total - 1:
			cpu1 = cpuSeconds()
			if traced {
				runtime.ReadMemStats(&td.mem1)
			}
		}
		if s.TargetAcc > 0 && (round+1)%s.EvalEvery == 0 {
			res.evals = append(res.evals, evalPoint{
				round: round, at: now, bytes: eps[0].bytes(), model: append([]float64(nil), model...),
			})
		}
		if fr, ok := manager0.(fl.FrozenRatioReporter); ok && traced && round >= s.Warmup {
			td.frozen = append(td.frozen, fr.FrozenRatio())
		}
	}

	results := make([]*transport.ClientResult, s.Clients)
	var clientWG sync.WaitGroup
	perRelay := s.Clients
	if s.Relays > 0 {
		perRelay = s.Clients / s.Relays
	}
	for i := 0; i < s.Clients; i++ {
		i, ep := i, newEndpoint(i, tr)
		eps[i] = ep
		// The last client of every relay is the one that churns.
		churns := s.SeverEvery > 0 && i%perRelay == perRelay-1
		name := fmt.Sprintf("c%d", i)
		ccfg := transport.ClientConfig{
			Addr: clientAddr[i], Name: name, SessionKey: name,
			Model: in.model, Optimizer: in.optimizer,
			Manager: func(id, dim int) fl.SyncManager {
				m := in.manager(id, dim)
				if i == 0 {
					manager0 = m
				}
				if traced {
					m = traceManager(m, ep)
				}
				return m
			},
			Data: in.train, Indices: in.parts[i], LocalIters: s.LocalIters, BatchSize: s.Batch,
			Seed: seed, Codec: in.codec, Dial: ep.dial,
			MaxRetries: 8, RetryBaseDelay: time.Millisecond, RetryMaxDelay: 10 * time.Millisecond,
		}
		ccfg.OnRound = func(round int, model []float64) {
			ep.flushWait(round)
			if i == 0 {
				onRound0(round, model)
			}
			if churns && (round+1)%s.SeverEvery == 0 && round < total-1 {
				ep.sever()
			}
		}
		clientWG.Add(1)
		go func() {
			defer clientWG.Done()
			var err error
			if results[i], err = transport.RunClient(ctx, ccfg); err != nil {
				failed <- fmt.Errorf("client %d: %w", i, err)
			}
		}()
		// Client ids follow launch order: the next client dials only after
		// this one holds its Welcome, on every topology.
		if err := await(ep, name); err != nil {
			cancel()
			clientWG.Wait()
			return stop(err)
		}
	}
	res.joined = time.Now()

	clientWG.Wait()
	tierWG.Wait()
	select {
	case err := <-failed:
		return nil, err
	default:
	}

	// Timing, from client 0's stamps.
	for r := s.Warmup; r < total; r++ {
		res.gapsMs = append(res.gapsMs, float64(stamps[r].Sub(stamps[r-1]))/1e6)
	}
	res.setupS = stamps[s.Warmup-1].Sub(start).Seconds()
	res.windowS = stamps[total-1].Sub(stamps[s.Warmup-1]).Seconds()
	res.cpuS = cpu1 - cpu0

	// Accounting, from the public accessors of every tier.
	for _, t := range tiers {
		read, sent := t.srv().WireBytes()
		res.wireBytes += read + sent
		res.failed += t.srv().RejectedUpdates() + t.srv().PartialRounds()
		if traced && t.relay != nil {
			r, w := t.relay.UpstreamBytes()
			td.upstreamBytes += r + w
		}
		if traced && t.name == "root" {
			td.rootBytes = read + sent
		}
	}

	// Every client ends on the same model; a passthrough cluster's tiers
	// hold that model too (APF aggregates are mask-compacted, so a tier's
	// dense copy is only informational there).
	res.final = results[0].FinalModel
	res.hash = hashModel(res.final)
	for i, r := range results {
		if h := hashModel(r.FinalModel); h != res.hash {
			return nil, fmt.Errorf("bench: client %d ended on model %016x, client 0 on %016x", i, h, res.hash)
		}
	}
	if s.Manager == "passthrough" {
		for _, t := range tiers {
			if h := hashModel(t.global); h != res.hash {
				return nil, fmt.Errorf("bench: %s ended on model %016x, the clients on %016x", t.name, h, res.hash)
			}
		}
	}

	if traced {
		tr.link()
		td.edge = edgeReg.Snapshot()
		for _, r := range results {
			td.reconnects += r.Reconnects
		}
		for _, ep := range tierEps {
			td.tapBytes += ep.bytes()
		}
		if mg, ok := manager0.(fl.MaskGenerationReporter); ok {
			td.maskGens = mg.MaskGeneration()
		}
	}
	return res, nil
}
