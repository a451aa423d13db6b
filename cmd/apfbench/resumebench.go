package main

// Resume-cost benchmark: measures the wire bytes a resuming client costs
// the server under the two catch-up modes, end to end over loopback
// (BENCH_resume.json). Three clients train under a partial-aggregation
// deadline; one severs its connection at round 1 and stays away for a
// scripted number of rounds, longer than the server's aggregate-history
// window, so the rejoin must catch up rather than replay.
//
// Gates (the report fails the run when violated):
//   - snapshot catch-up is O(dim): its cost stays flat as the absence
//     grows from 10 to 200 rounds;
//   - sketch catch-up is O(diff): with freezing-mask drift far below the
//     model dimension it costs a fraction of the snapshot.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/opt"
	"apf/internal/stats"
	"apf/internal/telemetry"
	"apf/internal/transport"
)

const (
	resumebenchSeed     = 5
	resumebenchHistory  = 4
	resumebenchDeadline = 20 * time.Millisecond
)

// resumebenchSnapshotAbsences are the snapshot-mode absence lengths; the
// flatness gate compares catch-up cost across this 20x spread.
var resumebenchSnapshotAbsences = []int{10, 50, 200}

// resumebenchModel builds the benchmark model (dim 2563): large enough
// that an O(dim) snapshot and an O(diff) sketch are clearly separated.
func resumebenchModel(rng *rand.Rand) *nn.Network {
	return nn.NewNetwork(
		nn.NewFlatten(),
		nn.NewDense(rng, "fc1", 36, 64),
		nn.NewTanh(),
		nn.NewDense(rng, "fc2", 64, 3),
	)
}

// resumebenchRun is one measured cell of the report.
type resumebenchRun struct {
	Mode         string  `json:"mode"`
	Absence      int     `json:"absence_rounds"`
	CatchupBytes float64 `json:"catchup_bytes"`
	BytesPerDim  float64 `json:"bytes_per_dim"`
}

// resumebenchReport is the BENCH_resume.json document.
type resumebenchReport struct {
	reportHeader

	Dim           int `json:"dim"`
	HistoryRounds int `json:"history_rounds"`

	Runs []resumebenchRun `json:"runs"`

	// SnapshotFlatRatio is max/min snapshot cost across the absence spread
	// (gate: <= 1.25); SketchVsSnapshot is sketch cost over snapshot cost
	// at the same dimension (gate: < 1, expected far below).
	SnapshotFlatRatio float64 `json:"snapshot_flat_ratio"`
	SketchVsSnapshot  float64 `json:"sketch_vs_snapshot"`
	Pass              bool    `json:"pass"`
}

// resumebenchCell runs one three-client cluster in which the third client
// severs at the given round and stays absent for the given number of
// rounds, and returns the catch-up mode the rejoin used and its measured
// wire cost.
func resumebenchCell(absence, sever int, shadow *core.Config) (mode string, bytes float64, err error) {
	gate := sever + 1 + absence
	rounds := gate + 2

	ds := data.SynthImages(data.ImageConfig{Classes: 3, Channels: 1, Size: 6, Samples: 90, NoiseStd: 0.5, Seed: resumebenchSeed})
	parts := data.PartitionIID(stats.SplitRNG(resumebenchSeed, 50), ds.Len(), 3)
	init := nn.FlattenParams(resumebenchModel(stats.SplitRNG(resumebenchSeed, 99)).Params(), nil)

	factory := func(clientID, dim int) fl.SyncManager {
		if shadow == nil {
			return fl.NewPassthroughManager(8)
		}
		cfg := *shadow
		cfg.Dim = dim
		return core.NewManager(cfg)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	reg := telemetry.New()
	srv, err := transport.NewServer(transport.ServerConfig{
		Addr:          "127.0.0.1:0",
		NumClients:    3,
		Rounds:        rounds,
		Init:          init,
		IOTimeout:     30 * time.Second,
		RoundDeadline: resumebenchDeadline,
		MinClients:    2,
		HistoryRounds: resumebenchHistory,
		Shadow:        shadow,
		Metrics:       reg,
	})
	if err != nil {
		return "", 0, err
	}
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		serverErr <- err
	}()

	// The severed client's dialer: the first dial connects immediately;
	// re-dials block until the scripted absence has elapsed on the server.
	var connMu sync.Mutex
	var shardConn net.Conn
	dials := 0
	dial := func(network, addr string) (net.Conn, error) {
		connMu.Lock()
		n := dials
		dials++
		connMu.Unlock()
		if n > 0 {
			for srv.CommittedRounds() < gate {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		c, err := net.Dial(network, addr)
		if err == nil {
			connMu.Lock()
			shardConn = c
			connMu.Unlock()
		}
		return c, err
	}

	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		cfg := transport.ClientConfig{
			Addr:           srv.Addr().String(),
			Name:           fmt.Sprintf("bench-%d", i),
			SessionKey:     fmt.Sprintf("bench-%d", i),
			Model:          resumebenchModel,
			Optimizer:      func(p []*nn.Param) opt.Optimizer { return opt.NewSGD(p, 0.3, 0, 0) },
			Manager:        factory,
			Data:           ds,
			Indices:        parts[i],
			LocalIters:     1,
			BatchSize:      10,
			Seed:           resumebenchSeed,
			MaxRetries:     60,
			RetryBaseDelay: 10 * time.Millisecond,
			RetryMaxDelay:  100 * time.Millisecond,
		}
		if i == 2 {
			cfg.Dial = dial
			cfg.OnRound = func(round int, _ []float64) {
				if round == sever {
					connMu.Lock()
					if shardConn != nil {
						shardConn.Close()
					}
					connMu.Unlock()
				}
			}
		}
		wg.Add(1)
		go func(i int, cfg transport.ClientConfig) {
			defer wg.Done()
			_, errs[i] = transport.RunClient(ctx, cfg)
		}(i, cfg)
	}
	wg.Wait()
	if err := <-serverErr; err != nil {
		return "", 0, fmt.Errorf("server: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return "", 0, fmt.Errorf("client %d: %w", i, err)
		}
	}

	h := reg.Histogram("apf_catchup_bytes", "", nil)
	if h.Count() != 1 {
		return "", 0, fmt.Errorf("expected exactly one catch-up, measured %d", h.Count())
	}
	for _, m := range []string{"sketch", "snapshot", "replay"} {
		if reg.Counter("apf_resume_mode_total", "", "mode", m).Value() > 0 {
			mode = m
		}
	}
	return mode, h.Sum(), nil
}

// runResumebench measures both catch-up modes, writes BENCH_resume.json,
// and fails when a cost gate is violated.
func runResumebench(path string) error {
	dim := nn.ParamCount(resumebenchModel(stats.SplitRNG(resumebenchSeed, 99)).Params())
	rep := resumebenchReport{
		reportHeader: newReportHeader("end-to-end catch-up cost over TCP loopback: a client absent past the aggregate-history window rejoins; " +
			"snapshot mode must cost O(dim) independent of the absence length (flat ratio <= 1.25 across 10..200 rounds); " +
			"sketch mode (freezing-mask drift far below dim) must cost less than the snapshot"),
		Dim:           dim,
		HistoryRounds: resumebenchHistory,
	}
	if err := writeReport(path, &rep, measureResume); err != nil {
		return err
	}
	fmt.Printf("resumebench: %s written — snapshot flat %.3fx across %dx absence growth, sketch/snapshot %.3f\n",
		path, rep.SnapshotFlatRatio,
		resumebenchSnapshotAbsences[len(resumebenchSnapshotAbsences)-1]/resumebenchSnapshotAbsences[0],
		rep.SketchVsSnapshot)
	if !rep.Pass {
		return fmt.Errorf("resumebench: cost gates violated (snapshot flat %.3fx > 1.25, or sketch/snapshot %.3f >= 1)",
			rep.SnapshotFlatRatio, rep.SketchVsSnapshot)
	}
	return nil
}

// measureResume fills rep with the snapshot series, the sketch cell and
// the two gate ratios.
func measureResume(rep *resumebenchReport) error {
	// Snapshot series: passthrough clients on a shadowless server pin the
	// catch-up to the stateless O(dim) snapshot.
	var snapMin, snapMax float64
	for _, absence := range resumebenchSnapshotAbsences {
		fmt.Fprintf(os.Stderr, "resumebench: snapshot cell, %d-round absence (dim %d)\n", absence, rep.Dim)
		mode, bytes, err := resumebenchCell(absence, 1, nil)
		if err != nil {
			return fmt.Errorf("snapshot absence %d: %w", absence, err)
		}
		if mode != "snapshot" {
			return fmt.Errorf("snapshot absence %d: caught up in %s mode", absence, mode)
		}
		rep.Runs = append(rep.Runs, resumebenchRun{
			Mode: mode, Absence: absence, CatchupBytes: bytes, BytesPerDim: bytes / float64(rep.Dim),
		})
		if snapMin == 0 || bytes < snapMin {
			snapMin = bytes
		}
		if bytes > snapMax {
			snapMax = bytes
		}
	}

	// Sketch series: APF clients against the server's shadow replica. With
	// an aggressive stability threshold (decay off), freezing matures into
	// long fully-frozen spans; the sever and the whole absence land inside
	// one span (rounds 42..53 under this schedule), so no mask word's
	// generation moves while the client is away and the rejoin reconciles
	// in O(diff) — here a handful of sketch cells and a header-only delta
	// instead of the full state.
	shadow := &core.Config{CheckEveryRounds: 2, Threshold: 1e6, ThresholdDecayFrac: -1, EMAAlpha: 0.85, Seed: resumebenchSeed}
	const (
		sketchAbsence = 6
		sketchSever   = 44
	)
	fmt.Fprintf(os.Stderr, "resumebench: sketch cell, %d-round absence after round %d (dim %d)\n", sketchAbsence, sketchSever, rep.Dim)
	mode, sketchBytes, err := resumebenchCell(sketchAbsence, sketchSever, shadow)
	if err != nil {
		return fmt.Errorf("sketch cell: %w", err)
	}
	if mode != "sketch" {
		return fmt.Errorf("sketch cell: caught up in %s mode", mode)
	}
	rep.Runs = append(rep.Runs, resumebenchRun{
		Mode: mode, Absence: sketchAbsence, CatchupBytes: sketchBytes, BytesPerDim: sketchBytes / float64(rep.Dim),
	})

	rep.SnapshotFlatRatio = snapMax / snapMin
	rep.SketchVsSnapshot = sketchBytes / snapMax
	rep.Pass = rep.SnapshotFlatRatio <= 1.25 && rep.SketchVsSnapshot < 1
	return nil
}
