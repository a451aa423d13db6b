package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"apf/internal/chaos"
	"apf/internal/data"
	"apf/internal/nn"
	"apf/internal/stats"
	"apf/internal/wire"
)

// TestRoundFramesEncodeOnce is the structural form of "broadcast encode
// cost stays flat as clients grow": for one committed round, every session
// writer asking for a codec's frame gets the same backing array, however
// many ask at once; sparse variants are built on first request, one codec
// at a time; and a round without mask agreement (maskHash 0) serves the
// dense frame to sparse sessions too, encoding nothing.
func TestRoundFramesEncodeOnce(t *testing.T) {
	g := &GlobalMsg{Round: 4, Participants: 3, Payload: []float64{1.5, -2, 0.25, 8}}
	rf := newRoundFrames(g, roundMeta{maskHash: 0xfeed, maskGen: 2}, 16)
	if rf.encoded[wire.CodecDense] == nil || rf.encoded[wire.CodecSparse] != nil || rf.encoded[wire.CodecSparseQ16] != nil {
		t.Fatal("at commit exactly the dense frame must exist")
	}

	const callers = 16
	kinds := map[wire.Codec]wire.Kind{
		wire.CodecDense:     wire.KindGlobal,
		wire.CodecSparse:    wire.KindSparseGlobal,
		wire.CodecSparseQ16: wire.KindSparseGlobal,
	}
	first := map[wire.Codec]*byte{}
	for _, c := range []wire.Codec{wire.CodecDense, wire.CodecSparse, wire.CodecSparseQ16} {
		got := make([][]byte, callers)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = rf.frame(c)
			}(i)
		}
		wg.Wait()
		for i, f := range got {
			if &f[0] != &got[0][0] || len(f) != len(got[0]) {
				t.Fatalf("%s: caller %d got its own frame, want the one shared encoding", c, i)
			}
		}
		if k := wire.FrameKind(got[0]); k != kinds[c] {
			t.Errorf("%s sessions are served a %s frame, want %s", c, k, kinds[c])
		}
		first[c] = &got[0][0]
		if c == wire.CodecSparse && rf.encoded[wire.CodecSparseQ16] != nil {
			t.Error("serving the sparse codec also built the sparse-q16 frame")
		}
	}
	if first[wire.CodecDense] == first[wire.CodecSparse] || first[wire.CodecSparse] == first[wire.CodecSparseQ16] {
		t.Error("distinct codecs share one frame")
	}

	bare := newRoundFrames(g, roundMeta{maskGen: -1}, 16)
	for _, c := range []wire.Codec{wire.CodecSparse, wire.CodecSparseQ16} {
		if f := bare.frame(c); &f[0] != &bare.encoded[wire.CodecDense][0] {
			t.Errorf("%s without mask agreement: got a frame of its own, want the dense frame", c)
		}
		if bare.encoded[c] != nil {
			t.Errorf("%s without mask agreement: a sparse frame was encoded", c)
		}
	}
}

// TestBroadcastNoHeadOfLineBlocking pins the encode-once/fan-out broadcast
// property: a client whose connection stalls must not delay the other
// clients' GlobalMsg delivery. A chaos fault delays one server→client
// write to client 0 by well over a second while partial aggregation (a
// short round deadline with MinClients=2) lets the round loop keep
// committing without it — so the only way the fast clients can observe
// the stall is if broadcast serializes their deliveries behind client 0's
// blocked write. The old broadcast loop did exactly that (one blocking
// write per session, in session order); per-session writer goroutines
// must not.
func TestBroadcastNoHeadOfLineBlocking(t *testing.T) {
	const (
		clients    = 3
		rounds     = 6
		slowRound  = 2
		writeDelay = 1500 * time.Millisecond
		deadline   = 400 * time.Millisecond
		// fastBound is generous against CI jitter (the fast clients' real
		// gaps track the round deadline) yet far below writeDelay, so the
		// assertion only discriminates blocked-behind-the-stalled-peer
		// delivery from concurrent delivery.
		fastBound = 1 * time.Second
	)

	ds := data.SynthImages(data.ImageConfig{Classes: 3, Channels: 1, Size: 6, Samples: 90, NoiseStd: 0.5, Seed: 5})
	parts := data.PartitionIID(stats.SplitRNG(5, 50), ds.Len(), clients)
	init := nn.FlattenParams(tinyModel(stats.SplitRNG(5, 99)).Params(), nil)

	// The clients dial sequentially with a head start, so client i is the
	// i-th accepted connection: "accept:0" is client 0. Deliveries are
	// asynchronous, so the delay armed at round slowRound's mark bites
	// whichever write to client 0 comes first afterwards — the tail of the
	// previous aggregate or round slowRound's; either way only client 0's
	// stream may stall.
	script := chaos.NewScript(11, chaos.Fault{
		Peer: "accept:0", Round: slowRound, Kind: chaos.Delay, Op: chaos.OnWrite, Delay: writeDelay,
	})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Listener:      script.Listener(inner),
		NumClients:    clients,
		Rounds:        rounds,
		Init:          init,
		IOTimeout:     10 * time.Second,
		RoundDeadline: deadline,
		MinClients:    clients - 1,
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

	// applied[i][r] is when client i finished applying round r.
	applied := make([][]time.Time, clients)
	results := make([]*ClientResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		applied[i] = make([]time.Time, rounds)
		name := fmt.Sprintf("shard-%d", i)
		cfg := ClientConfig{
			Addr:       srv.Addr().String(),
			Name:       name,
			SessionKey: name,
			Model:      tinyModel,
			Optimizer:  tinySGD,
			Manager:    apfChaosFactory,
			Data:       ds,
			Indices:    parts[i],
			LocalIters: 3,
			BatchSize:  10,
			Seed:       5,
			OnRound: func(round int, model []float64) {
				applied[i][round] = time.Now()
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = RunClient(ctx, cfg)
		}()
		time.Sleep(100 * time.Millisecond)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	for i, res := range results {
		if res.Rounds != rounds {
			t.Fatalf("client %d finished %d of %d rounds", i, res.Rounds, rounds)
		}
	}

	maxGap := func(i int) time.Duration {
		var max time.Duration
		for r := 1; r < rounds; r++ {
			if gap := applied[i][r].Sub(applied[i][r-1]); gap > max {
				max = gap
			}
		}
		return max
	}
	// The stalled client really stalled for the full injected delay…
	if gap := maxGap(0); gap < writeDelay {
		t.Fatalf("chaos delay did not bite: client 0's largest inter-round gap is %v", gap)
	}
	// …and the round loop kept committing without it (otherwise the
	// deadline never fired and the barrier — not broadcast — paced
	// everyone, which is not the property under test).
	if srv.PartialRounds() == 0 {
		t.Fatal("expected at least one partial round while client 0 was stalled")
	}
	// The fast clients' deliveries must never ride behind the stalled one.
	for i := 1; i < clients; i++ {
		if gap := maxGap(i); gap >= fastBound {
			t.Errorf("head-of-line blocking: client %d's largest inter-round gap is %v (stalled peer delay %v)",
				i, gap, writeDelay)
		}
	}
}
