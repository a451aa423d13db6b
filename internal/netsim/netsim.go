// Package netsim models the edge network of the paper's testbed (§7.1):
// every client has an asymmetric Internet link (9 Mbps down / 3 Mbps up,
// the global-average profile the paper cites) to a well-provisioned
// central server. It converts the engine's exact per-round byte counts
// into the per-round wall-clock times of Table 3.
package netsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// LinkProfile describes one client's connectivity and compute speed.
type LinkProfile struct {
	// UpBitsPerSec is the client→server bandwidth.
	UpBitsPerSec float64
	// DownBitsPerSec is the server→client bandwidth.
	DownBitsPerSec float64
	// RTT is the per-exchange round-trip latency.
	RTT time.Duration
	// ComputePerIter is the local time for one training iteration.
	ComputePerIter time.Duration
}

// GlobalInternet is the paper's §7.1 client profile: 3 Mbps up, 9 Mbps
// down. The compute cost defaults to zero; experiments scale it per model.
func GlobalInternet() LinkProfile {
	return LinkProfile{
		UpBitsPerSec:   3e6,
		DownBitsPerSec: 9e6,
		RTT:            50 * time.Millisecond,
	}
}

// TransferUp returns the push time for the given payload.
func (p LinkProfile) TransferUp(bytes int64) time.Duration {
	return transfer(bytes, p.UpBitsPerSec)
}

// TransferDown returns the pull time for the given payload.
func (p LinkProfile) TransferDown(bytes int64) time.Duration {
	return transfer(bytes, p.DownBitsPerSec)
}

// transfer converts bytes over a bandwidth into a duration.
func transfer(bytes int64, bitsPerSec float64) time.Duration {
	if bitsPerSec <= 0 {
		panic(fmt.Sprintf("netsim: invalid bandwidth %v", bitsPerSec))
	}
	seconds := float64(bytes*8) / bitsPerSec
	return time.Duration(seconds * float64(time.Second))
}

// RoundTime returns the wall-clock duration of one synchronous FL round:
// the slowest client's compute + push + pull (plus one RTT), since the
// aggregation barrier waits for every client.
func RoundTime(profiles []LinkProfile, iters []int, upBytes, downBytes []int64) time.Duration {
	if len(profiles) != len(iters) || len(profiles) != len(upBytes) || len(profiles) != len(downBytes) {
		panic(fmt.Sprintf("netsim: mismatched lengths profiles=%d iters=%d up=%d down=%d",
			len(profiles), len(iters), len(upBytes), len(downBytes)))
	}
	var worst time.Duration
	for i, p := range profiles {
		t := time.Duration(iters[i])*p.ComputePerIter +
			p.TransferUp(upBytes[i]) +
			p.TransferDown(downBytes[i]) +
			p.RTT
		if t > worst {
			worst = t
		}
	}
	return worst
}

// DropoutSchedule deterministically decides which clients sit out each
// round, modelling the client churn the fault-tolerant transport absorbs
// with partial aggregation. Every (round, client) decision is a pure
// function of the seed, so simulator and testbed runs can share one
// schedule. At least one client is always kept active per round — the
// server's MinClients floor never lets a round aggregate nothing.
type DropoutSchedule struct {
	seed    int64
	clients int
	rate    float64
}

// NewDropoutSchedule builds a schedule where each client independently
// misses a round with probability rate (clamped to [0, 1]).
func NewDropoutSchedule(seed int64, clients int, rate float64) *DropoutSchedule {
	if clients <= 0 {
		panic(fmt.Sprintf("netsim: invalid client count %d", clients))
	}
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return &DropoutSchedule{seed: seed, clients: clients, rate: rate}
}

// Active reports whether the client participates in the round. The
// fallback client (round mod clients) participates whenever the draw
// would otherwise empty the round.
func (d *DropoutSchedule) Active(round, client int) bool {
	if d.draw(round, client) >= d.rate {
		return true
	}
	if client != round%d.clients {
		return false
	}
	// Fallback slot: stay active unless some other client already is.
	for c := 0; c < d.clients; c++ {
		if c != client && d.draw(round, c) >= d.rate {
			return false
		}
	}
	return true
}

// draw returns the uniform [0,1) variate for one (round, client) cell.
func (d *DropoutSchedule) draw(round, client int) float64 {
	return cellRNG(d.seed, round, client).Float64()
}

// cellRNG derives the deterministic RNG of one (seed, round, client)
// cell, so every schedule decision is a pure function of the seed and
// simulator and testbed runs can share one schedule.
func cellRNG(seed int64, round, client int) *rand.Rand {
	h := fnv.New64a()
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(round))
	binary.LittleEndian.PutUint64(buf[16:], uint64(client))
	h.Write(buf[:])
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// DelaySchedule deterministically decides which clients suffer an extra
// network stall each round, and how long it lasts. Like DropoutSchedule,
// every (round, client) decision is a pure function of the seed. Delay
// durations are jittered uniformly in [Delay/2, Delay) so concurrent
// stalls don't align on one magic duration.
type DelaySchedule struct {
	seed    int64
	clients int
	rate    float64
	delay   time.Duration
}

// NewDelaySchedule builds a schedule where each client independently
// stalls in a round with probability rate (clamped to [0, 1]) for a
// jittered duration up to delay.
func NewDelaySchedule(seed int64, clients int, rate float64, delay time.Duration) *DelaySchedule {
	if clients <= 0 {
		panic(fmt.Sprintf("netsim: invalid client count %d", clients))
	}
	if delay < 0 {
		panic(fmt.Sprintf("netsim: invalid delay %v", delay))
	}
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return &DelaySchedule{seed: seed, clients: clients, rate: rate, delay: delay}
}

// DelayAt returns the extra stall for the client in the round: zero when
// the draw spares it, otherwise a deterministic duration in
// [delay/2, delay). The dropout and delay draws are decorrelated by
// seeding the delay cells from a distinct stream.
func (d *DelaySchedule) DelayAt(round, client int) time.Duration {
	rng := cellRNG(d.seed^delayStream, round, client)
	if rng.Float64() >= d.rate || d.delay == 0 {
		return 0
	}
	half := float64(d.delay) / 2
	return time.Duration(half + rng.Float64()*half)
}

// delayStream decorrelates DelaySchedule draws from DropoutSchedule draws
// that share a seed.
const delayStream = 0x64656c6179 // "delay"

// UniformProfiles returns n copies of profile.
func UniformProfiles(n int, profile LinkProfile) []LinkProfile {
	out := make([]LinkProfile, n)
	for i := range out {
		out[i] = profile
	}
	return out
}

// UniformIters returns n copies of iters.
func UniformIters(n, iters int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = iters
	}
	return out
}
