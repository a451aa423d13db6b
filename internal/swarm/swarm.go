// Package swarm is a discrete-event simulator for the two-tier transport
// topology at scales no socket harness reaches: it drives hundreds of
// thousands to millions of simulated clients through the REAL aggregation
// logic — fl.Aggregator streaming folds on the edges, exact partial
// export, wire-codec framing on the relay↔root boundary, fl.AddPartial
// merges and the exact reduction at the root — with network hops replaced
// by a virtual clock and a container/heap event queue.
//
// Its purpose is the hierarchy's scaling claim: per-round root work
// (frames decoded, bytes exchanged, CPU in root-side code) depends only
// on the relay count, not the client population. The simulator measures
// root work in isolation so a benchmark can pin flatness across a 10x
// client growth, and it optionally re-aggregates every round through a
// flat fl.Aggregator over all clients to prove the committed trajectory
// is bit-identical to the flat topology's.
package swarm

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"apf/internal/fl"
	"apf/internal/wire"
)

// meanLatencySeconds is the mean of the exponential per-hop network
// latency.
const meanLatencySeconds = 0.03

// Config parameterizes one simulated deployment.
type Config struct {
	// Clients is the total simulated client population, spread round-robin
	// across the relays.
	Clients int
	// Relays is the number of edge pre-aggregators.
	Relays int
	// Dim is the model dimension.
	Dim int
	// Rounds is the number of aggregation rounds to simulate.
	Rounds int
	// Seed drives every pseudo-random stream: client contributions,
	// weights, and network latencies.
	Seed int64
	// Oracle, when set, re-aggregates every round through a flat
	// fl.Aggregator over all clients and requires the root's committed
	// global to match bit for bit. Roughly doubles the simulation cost.
	Oracle bool
}

// Result reports one simulation. Byte and frame counts are deterministic
// for a given config; CPU seconds are wall-clock measurements of the
// respective tier's code and vary run to run.
type Result struct {
	Clients int `json:"clients"`
	Relays  int `json:"relays"`
	Dim     int `json:"dim"`
	Rounds  int `json:"rounds"`

	// Events is the number of discrete events processed.
	Events int64 `json:"events"`
	// VirtualSeconds is the simulated clock at completion.
	VirtualSeconds float64 `json:"virtual_seconds"`

	// Root-tier work, measured in isolation. Frames and bytes count the
	// wire-encoded traffic crossing the relay↔root boundary (partials in,
	// the round's global out to every relay); CPU covers decode, merge,
	// reduce, and encode on the root.
	RootFramesIn      int64   `json:"root_frames_in"`
	RootBytesIn       int64   `json:"root_bytes_in"`
	RootBytesOut      int64   `json:"root_bytes_out"`
	RootCPUSeconds    float64 `json:"root_cpu_seconds"`
	RootBytesPerRound float64 `json:"root_bytes_per_round"`
	RootCPUPerRound   float64 `json:"root_cpu_per_round"`

	// Edge-tier work: folding every client contribution and framing the
	// partials. Scales with the client population, unlike the root.
	EdgeCPUSeconds float64 `json:"edge_cpu_seconds"`

	// OracleChecked/OracleMatch report the flat re-aggregation: true/true
	// means every committed round matched the flat topology bit for bit.
	OracleChecked bool `json:"oracle_checked"`
	OracleMatch   bool `json:"oracle_match"`

	// FinalChecksum fingerprints the last committed global so two runs
	// (or two scales sharing a seed) can be compared cheaply.
	FinalChecksum uint64 `json:"final_checksum"`

	// WallSeconds is the real time the simulation took.
	WallSeconds float64 `json:"wall_seconds"`
}

// Event kinds, in the order they occur within a round.
const (
	evUpdate  = iota // one client's update arrives at its relay
	evPartial        // one relay's partial arrives at the root
	evGlobal         // the round's global arrives back at one relay
)

// event is one scheduled arrival on the virtual clock. seq breaks time
// ties deterministically (heap order would otherwise be unspecified).
type event struct {
	at   float64
	seq  int64
	kind int8
	who  int32 // client for evUpdate, relay otherwise
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// splitmix64 is the per-(seed, client, round, coordinate) value stream: a
// stateless hash-quality PRNG, so contributions never need to be stored —
// the edge and the flat oracle regenerate identical values on demand.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash word to a float in [-1, 1).
func unit(h uint64) float64 { return float64(int64(h>>11))/(1<<52) - 1 }

// fillContribution regenerates client k's round-r update. It depends on
// the previous committed global, so the simulated trajectory is genuinely
// sequential: a wrong bit in any round's commit cascades into every
// later round and cannot cancel out of the oracle comparison.
func fillContribution(dst []float64, seed int64, client, round int, prev []float64) {
	base := splitmix64(uint64(seed)<<1 ^ uint64(client)*0x9e3779b97f4a7c15 ^ uint64(round)<<40)
	for j := range dst {
		v := unit(splitmix64(base + uint64(j)))
		if prev != nil {
			v += 0.25 * prev[j]
		}
		dst[j] = v
	}
}

// clientWeight derives client k's deterministic aggregation weight in
// [0.5, 1.5).
func clientWeight(seed int64, client int) float64 {
	return 1 + 0.5*unit(splitmix64(uint64(seed)^uint64(client)*0xd1342543de82ef95))
}

// relayState is one simulated edge: a real streaming aggregator plus the
// round bookkeeping the socket relay keeps in its engine.
type relayState struct {
	agg     *fl.Aggregator
	clients int        // population this relay terminates
	arrived int        // contributions folded this round
	partial fl.Partial // the round's exported sum (buffer reused every round)
	frame   []byte     // its wire frame, in flight to the root (buffer reused)
	got     bool
}

// Run simulates one deployment and returns its measurements. The two-tier
// trajectory is committed round by round exactly as the transport does
// it: edges fold, export, and frame partials; the root decodes, merges
// with AddPartial, reduces, and frames the global.
func Run(cfg Config) (*Result, error) {
	if cfg.Clients <= 0 || cfg.Relays <= 0 || cfg.Dim <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("swarm: invalid config %+v", cfg)
	}
	if cfg.Clients < cfg.Relays {
		return nil, fmt.Errorf("swarm: %d clients cannot cover %d relays", cfg.Clients, cfg.Relays)
	}
	if cfg.Clients > fl.MaxContributors {
		return nil, fmt.Errorf("swarm: %d clients exceed the %d one round folds", cfg.Clients, fl.MaxContributors)
	}
	wallStart := time.Now()
	res := &Result{Clients: cfg.Clients, Relays: cfg.Relays, Dim: cfg.Dim, Rounds: cfg.Rounds}

	relays := make([]relayState, cfg.Relays)
	for r := range relays {
		relays[r].agg = fl.NewAggregator(1)
		relays[r].agg.SetStreaming(true)
		defer relays[r].agg.Close()
	}
	for k := 0; k < cfg.Clients; k++ {
		relays[k%cfg.Relays].clients++
	}
	root := fl.NewAggregator(1)
	root.SetStreaming(true)
	defer root.Close()

	var oracle *fl.Aggregator
	if cfg.Oracle {
		oracle = fl.NewAggregator(2)
		oracle.SetStreaming(true)
		defer oracle.Close()
		res.OracleChecked = true
		res.OracleMatch = true
	}

	// Latency stream: one splitmix walk, exponential via inverse CDF.
	latSeed := splitmix64(uint64(cfg.Seed) ^ 0xA5A5A5A5A5A5A5A5)
	nextLatency := func() float64 {
		latSeed = splitmix64(latSeed)
		u := float64(latSeed>>11) / (1 << 53) // (0,1)
		if u == 0 {
			u = 0.5
		}
		return -meanLatencySeconds * math.Log(u)
	}

	q := make(eventQueue, 0, cfg.Clients+2*cfg.Relays)
	var seq int64
	push := func(now float64, kind int8, who int32) {
		seq++
		heap.Push(&q, event{at: now + nextLatency(), seq: seq, kind: kind, who: who})
	}

	contrib := make([]float64, cfg.Dim)
	global := make([]float64, cfg.Dim)
	oracleGlobal := make([]float64, cfg.Dim)
	var prev []float64 // previous round's committed global (nil in round 0)
	var globalFrame []byte

	round := 0
	openRound := func(now float64) {
		for r := range relays {
			relays[r].agg.Open(round, relays[r].clients)
			relays[r].arrived = 0
			relays[r].got = false
		}
		rootStart := time.Now()
		root.Open(round, cfg.Relays)
		res.RootCPUSeconds += time.Since(rootStart).Seconds()
		for k := 0; k < cfg.Clients; k++ {
			push(now, evUpdate, int32(k))
		}
	}
	openRound(0)

	rootArrived := 0
	globalsDelivered := 0
	var now float64
	for q.Len() > 0 {
		e := heap.Pop(&q).(event)
		now = e.at
		res.Events++
		switch e.kind {
		case evUpdate:
			k := int(e.who)
			rs := &relays[k%cfg.Relays]
			edgeStart := time.Now()
			fillContribution(contrib, cfg.Seed, k, round, prev)
			if err := rs.agg.Add(k/cfg.Relays, contrib, clientWeight(cfg.Seed, k)); err != nil {
				return nil, fmt.Errorf("swarm: round %d client %d: %w", round, k, err)
			}
			rs.arrived++
			if rs.arrived == rs.clients {
				// Relay round closed: export and frame the partial exactly
				// as the socket relay would.
				if _, ok := rs.agg.ExportPartial(&rs.partial); !ok {
					return nil, fmt.Errorf("swarm: round %d relay %d export failed", round, k%cfg.Relays)
				}
				rs.frame = wire.Append(rs.frame[:0], &wire.PartialUpdateMsg{Round: round, Sum: rs.partial})
				res.EdgeCPUSeconds += time.Since(edgeStart).Seconds()
				res.RootBytesIn += int64(len(rs.frame))
				push(now, evPartial, int32(k%cfg.Relays))
			} else {
				res.EdgeCPUSeconds += time.Since(edgeStart).Seconds()
			}
		case evPartial:
			// The root decodes the relay's actual wire frame, so the
			// measured CPU covers the real decode path (header checks, CRC,
			// packed-section validation), then merges through AddPartial
			// straight from the frame.
			rs := &relays[e.who]
			rootStart := time.Now()
			m, rest, err := wire.Decode(rs.frame, 0)
			if err != nil || len(rest) != 0 {
				return nil, fmt.Errorf("swarm: round %d relay %d partial decode: %v", round, e.who, err)
			}
			pm, ok := m.(*wire.PartialUpdateMsg)
			if !ok || pm.Round != round {
				return nil, fmt.Errorf("swarm: round %d relay %d sent %T", round, e.who, m)
			}
			if err := root.AddPartial(int(e.who), &pm.Sum); err != nil {
				return nil, fmt.Errorf("swarm: round %d root AddPartial(%d): %w", round, e.who, err)
			}
			res.RootCPUSeconds += time.Since(rootStart).Seconds()
			res.RootFramesIn++
			rootArrived++
			if rootArrived == cfg.Relays {
				rootStart := time.Now()
				participants := root.ClientCount()
				if _, ok := root.Reduce(global); !ok {
					return nil, fmt.Errorf("swarm: round %d root Reduce failed", round)
				}
				globalFrame = wire.Encode(&wire.GlobalMsg{Round: round, Participants: participants, Payload: global})
				res.RootCPUSeconds += time.Since(rootStart).Seconds()
				res.RootBytesOut += int64(len(globalFrame)) * int64(cfg.Relays)
				for r := 0; r < cfg.Relays; r++ {
					push(now, evGlobal, int32(r))
				}
			}
		case evGlobal:
			rs := &relays[e.who]
			if rs.got {
				return nil, fmt.Errorf("swarm: round %d relay %d got two globals", round, e.who)
			}
			edgeStart := time.Now()
			m, rest, err := wire.Decode(globalFrame, 0)
			res.EdgeCPUSeconds += time.Since(edgeStart).Seconds()
			if err != nil || len(rest) != 0 {
				return nil, fmt.Errorf("swarm: round %d relay %d global decode: %v", round, e.who, err)
			}
			g, ok := m.(*wire.GlobalMsg)
			if !ok || g.Round != round {
				return nil, fmt.Errorf("swarm: round %d relay %d got %T round %d", round, e.who, m, g.Round)
			}
			rs.got = true
			globalsDelivered++
			if globalsDelivered < cfg.Relays {
				continue
			}
			// Round committed everywhere. Check the oracle, then advance.
			globalsDelivered = 0
			rootArrived = 0
			if oracle != nil {
				oracle.Open(round, cfg.Clients)
				oc := make([]float64, cfg.Dim)
				for k := 0; k < cfg.Clients; k++ {
					fillContribution(oc, cfg.Seed, k, round, prev)
					if err := oracle.Add(k, oc, clientWeight(cfg.Seed, k)); err != nil {
						return nil, fmt.Errorf("swarm: oracle round %d client %d: %w", round, k, err)
					}
				}
				if _, ok := oracle.Reduce(oracleGlobal); !ok {
					return nil, fmt.Errorf("swarm: oracle round %d Reduce failed", round)
				}
				for j := range global {
					if global[j] != oracleGlobal[j] {
						res.OracleMatch = false
						return res, fmt.Errorf("swarm: round %d diverged from the flat oracle at coordinate %d: %v vs %v",
							round, j, global[j], oracleGlobal[j])
					}
				}
			}
			if prev == nil {
				prev = make([]float64, cfg.Dim)
			}
			copy(prev, global)
			round++
			if round < cfg.Rounds {
				openRound(now)
			}
		}
	}
	if round != cfg.Rounds {
		return nil, fmt.Errorf("swarm: queue drained at round %d of %d", round, cfg.Rounds)
	}

	res.VirtualSeconds = now
	res.RootBytesPerRound = float64(res.RootBytesIn+res.RootBytesOut) / float64(cfg.Rounds)
	res.RootCPUPerRound = res.RootCPUSeconds / float64(cfg.Rounds)
	var sum uint64
	for j := range prev {
		sum = splitmix64(sum ^ math.Float64bits(prev[j]))
	}
	res.FinalChecksum = sum
	res.WallSeconds = time.Since(wallStart).Seconds()
	return res, nil
}
