package fl

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"testing"

	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/opt"
	"apf/internal/stats"
)

// hashFloats feeds the bits of xs into h.
func hashFloats(h io.Writer, xs []float64) {
	var buf [8]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// TestEngineTrajectoryPinned pins the simulator's exact trajectory through
// every per-client path of a replica: an APF manager, the FedProx proximal
// term, an LR schedule, stragglers dropped from aggregation, half the
// clients idle each round, and tracked parameters. The constants were
// recorded before the replica existed; a change to how a client is built or
// stepped must leave all three untouched.
func TestEngineTrajectoryPinned(t *testing.T) {
	train, test := splitDataset(240, 40, 35)
	parts := data.PartitionIID(stats.SplitRNG(35, 0), train.Len(), 4)
	cfg := Config{
		Rounds:         14,
		LocalIters:     3,
		BatchSize:      12,
		Seed:           35,
		EvalEvery:      7,
		Prox:           0.05,
		WorkFractions:  []float64{1, 0.5, 1, 0.34},
		DropStragglers: true,
		LRSchedule:     opt.MultiplicativeDecay{Base: 0.3, Factor: 0.9, Every: 5},
		TrackParams:    []int{0, 17, 500, 1659},
		Participation:  0.5,
	}
	mf := func(_, dim int) SyncManager {
		return core.NewManager(core.Config{Dim: dim, CheckEveryRounds: 2, Threshold: 0.3, EMAAlpha: 0.8, Seed: 35})
	}
	e := New(cfg, mlpFactory, sgdFactory(0.3), mf, train, parts, test)
	res := e.Run()

	if fr := res.Rounds[len(res.Rounds)-1].FrozenRatio; fr <= 0 {
		t.Fatalf("final frozen ratio %v: the pin must exercise freezing", fr)
	}
	var up, down []int64
	tracked := fnv.New64a()
	for _, m := range res.Rounds {
		up = append(up, m.UpBytes)
		down = append(down, m.DownBytes)
		for _, vals := range m.Tracked {
			hashFloats(tracked, vals)
		}
	}
	global := fnv.New64a()
	hashFloats(global, e.Global())

	const wantGlobal, wantTracked = uint64(0x100134f85ba99cd4), uint64(0xb096a2b70f1bac86)
	wantUp := []int64{13280, 13280, 13280, 13280, 13136, 13136, 13184, 13184, 13096, 13096, 13000, 13000, 13024, 13024}
	wantDown := wantUp
	if got := global.Sum64(); got != wantGlobal {
		t.Errorf("final global hashes to %#016x, want %#016x", got, wantGlobal)
	}
	if got := tracked.Sum64(); got != wantTracked {
		t.Errorf("tracked values hash to %#016x, want %#016x", got, wantTracked)
	}
	if !slices.Equal(up, wantUp) || !slices.Equal(down, wantDown) {
		t.Errorf("per-round bytes\nup   %v\ndown %v\nwant\nup   %v\ndown %v", up, down, wantUp, wantDown)
	}
}

// TestEngineRandomFreezingPinned pins the simulator's trajectory under the
// §5 random-freezing extensions, whose draws no other pin reaches: APF#
// (a fixed probability, one draw per unstable scalar) and APF++ (a growing
// probability and a second draw for the length) on a check every round.
// The constants were recorded with the multi-pass stability check and
// math/rand's Float64 stream; every client's manager must hold the same
// final mask, and a draw out of order moves the mask, the bytes and the
// model.
func TestEngineRandomFreezingPinned(t *testing.T) {
	for _, c := range []struct {
		name                 string
		random               core.RandomFreeze
		wantGlobal, wantMask uint64
		wantUp               []int64
	}{
		{"apf#", core.RandomFreeze{Mode: core.RandomFixed, Prob: 0.5},
			0x8ed97c3b1d1d86a8, 0x5a46612ce7617b59,
			[]int64{26560, 26560, 13520, 13168, 13296, 12768, 12912, 13152, 13008, 13152, 13120, 12560, 12688, 13328}},
		{"apf++", core.RandomFreeze{Mode: core.RandomGrowing, ProbGrowth: 0.06, LenGrowth: 0.4},
			0x8fdfe058c1637d00, 0x901a19a8ad379700,
			[]int64{26560, 26560, 23648, 21392, 19168, 16432, 13968, 11392, 9264, 6768, 5184, 3952, 2448, 2112}},
	} {
		t.Run(c.name, func(t *testing.T) {
			train, test := splitDataset(240, 40, 36)
			parts := data.PartitionIID(stats.SplitRNG(36, 0), train.Len(), 4)
			cfg := Config{Rounds: 14, LocalIters: 3, BatchSize: 12, Seed: 36, EvalEvery: 7}
			var managers []*core.Manager
			mf := func(_, dim int) SyncManager {
				m := core.NewManager(core.Config{Dim: dim, CheckEveryRounds: 1, Threshold: 0.3, EMAAlpha: 0.8,
					Seed: 36, Random: c.random})
				managers = append(managers, m)
				return m
			}
			e := New(cfg, mlpFactory, sgdFactory(0.3), mf, train, parts, test)
			res := e.Run()

			var up, down []int64
			for _, m := range res.Rounds {
				up = append(up, m.UpBytes)
				down = append(down, m.DownBytes)
			}
			global := fnv.New64a()
			hashFloats(global, e.Global())
			mask := fnv.New64a()
			var buf [8]byte
			for _, w := range managers[0].MaskWords() {
				binary.LittleEndian.PutUint64(buf[:], w)
				mask.Write(buf[:])
			}
			for i, m := range managers[1:] {
				if !slices.Equal(m.MaskWords(), managers[0].MaskWords()) {
					t.Fatalf("client %d ends on a different mask than client 0", i+1)
				}
			}
			if got := global.Sum64(); got != c.wantGlobal {
				t.Errorf("final global hashes to %#016x, want %#016x", got, c.wantGlobal)
			}
			if got := mask.Sum64(); got != c.wantMask {
				t.Errorf("final mask hashes to %#016x, want %#016x", got, c.wantMask)
			}
			if !slices.Equal(up, c.wantUp) || !slices.Equal(down, c.wantUp) {
				t.Errorf("per-round bytes\nup   %v\ndown %v\nwant %v", up, down, c.wantUp)
			}
		})
	}
}
