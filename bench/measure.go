package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/stats"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one invocation's outcome for one workload: the end-to-end
// metrics of its timed episodes or, with tracing, the per-layer table.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Everything below is detail for the report; the driver reads only the
	// four keys above.
	Episodes     int               `json:"-"`
	HostSlowness float64           `json:"-"` // median refKernel time ÷ refNominalNs over the run
	Samples      int               `json:"-"` // measured rounds behind the percentiles
	Hashes       map[string]string `json:"-"` // final-model hash by episode sub-seed
	Notes        []string          `json:"-"`
	Spans        []span            `json:"-"` // last traced episode
}

// subSeed derives the seed of the k-th episode pair of a run. Episodes of
// one run use different inputs, so a run's medians average over several
// draws of the data, the shards and the masks.
func subSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// peakRSSMB reads the process's VmHWM.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// measure runs episodes of the workload for about `seconds`: timed episodes
// only, or — with trace — timed and traced episodes of the same sub-seed
// alternating, so the traced numbers come with their own overhead figure
// and a hash to agree with.
func measure(s spec, seed int64, seconds float64, trace bool, tmp string) (*runResult, error) {
	begin := time.Now()
	out := &runResult{Correct: true, Metrics: make(map[string]metric), Hashes: make(map[string]string)}
	var timed, traced []*episodeResult
	for k := 0; ; k++ {
		epStart := time.Now()
		ep, err := runEpisode(s, subSeed(seed, k), false, tmp)
		if err != nil {
			return nil, err
		}
		timed = append(timed, ep)
		out.Hashes[fmt.Sprint(subSeed(seed, k))] = fmt.Sprintf("%016x", ep.hash)
		if trace {
			tep, err := runEpisode(s, subSeed(seed, k), true, tmp)
			if err != nil {
				return nil, err
			}
			if tep.hash != ep.hash {
				out.Correct = false
				out.Notes = append(out.Notes, fmt.Sprintf("sub-seed %d: traced run ended on %016x, timed run on %016x",
					subSeed(seed, k), tep.hash, ep.hash))
			}
			traced = append(traced, tep)
		}
		// Stop at the episode boundary nearest the requested duration.
		last := time.Since(epStart).Seconds()
		if time.Since(begin).Seconds()+last/2 >= seconds {
			break
		}
	}

	// Pool the timed episodes.
	rounds, totalRounds := 0, 0
	var window, cpu float64
	var wire int64
	var gaps, setups []float64
	for _, ep := range timed {
		rounds += len(ep.gapsMs)
		totalRounds += s.total()
		window += ep.windowS
		cpu += ep.cpuS
		wire += ep.wireBytes
		gaps = append(gaps, ep.gapsMs...)
		setups = append(setups, ep.setupS)
		out.Failed += ep.failed
	}
	for _, ep := range traced {
		out.Failed += ep.failed
	}
	out.Episodes = len(timed)
	out.Samples = len(gaps)
	out.Attempted = (len(timed) + len(traced)) * s.Clients * s.total()
	if out.Failed > 0 {
		out.Correct = false
	}
	rss := peakRSSMB() // before the oracle below allocates anything

	if !trace {
		out.Metrics["setup_s"] = metric{median(setups), "s"}
		out.Metrics["rounds_per_s"] = metric{float64(rounds) / window, "1/s"}
		out.Metrics["round_p50_ms"] = metric{median(gaps), "ms"}
		out.Metrics["round_p90_ms"] = metric{percentile(gaps, 0.9), "ms"}
		out.Metrics["cpu_ms_per_round"] = metric{1000 * cpu / float64(rounds), "ms"}
		out.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		out.Metrics["wire_bytes_per_round"] = metric{float64(wire) / float64(totalRounds), "B"}
	} else {
		for name, m := range layerTable(s, timed, traced, float64(rounds)/window) {
			out.Metrics[name] = m
		}
		out.Spans = traced[len(traced)-1].trace.tr.spans
	}

	if err := checkOracle(s, subSeed(seed, 0), timed[0], tmp); err != nil {
		out.Correct = false
		out.Notes = append(out.Notes, err.Error())
	}
	return out, nil
}

// checkOracle compares the first episode's final model with an independent
// run of the same inputs: the in-process fl simulator for converge, the
// flat never-severed twin for relay-churn. The other workloads are covered
// by the cross-participant check inside runEpisode.
func checkOracle(s spec, seed int64, ep *episodeResult, tmp string) error {
	switch {
	case s.Relays > 0:
		flat := s
		flat.Relays, flat.SeverEvery = 0, 0
		twin, err := runEpisode(flat, seed, false, tmp)
		if err != nil {
			return fmt.Errorf("flat twin: %w", err)
		}
		if twin.hash != ep.hash {
			return fmt.Errorf("two-tier run with reconnects ended on %016x, its flat unsevered twin on %016x", ep.hash, twin.hash)
		}
	case s.Model == "lenet":
		in := ep.in
		engine := fl.New(fl.Config{Rounds: s.total(), LocalIters: s.LocalIters, BatchSize: s.Batch, Seed: seed},
			in.model, in.optimizer, in.manager, in.train, in.parts, nil)
		engine.Run()
		// The simulator's global is dense; APF clients hold it too (frozen
		// scalars equal their last synchronized value everywhere).
		return sameModel(engine.Global(), ep.final)
	}
	return nil
}

// sameModel requires the simulator and the TCP run to agree: every scalar
// within 1e-12 relative and at least nine in ten bit-identical (the two
// paths may order a handful of float operations differently).
func sameModel(sim, tcp []float64) error {
	if len(sim) != len(tcp) {
		return fmt.Errorf("oracle: simulator dim %d, cluster dim %d", len(sim), len(tcp))
	}
	exact := 0
	for i := range sim {
		if math.Float64bits(sim[i]) == math.Float64bits(tcp[i]) {
			exact++
			continue
		}
		scale := math.Max(1, math.Max(math.Abs(sim[i]), math.Abs(tcp[i])))
		if math.Abs(sim[i]-tcp[i]) > 1e-12*scale {
			return fmt.Errorf("oracle: scalar %d: simulator %v, cluster %v", i, sim[i], tcp[i])
		}
	}
	if 10*exact < 9*len(sim) {
		return fmt.Errorf("oracle: only %d of %d scalars bit-identical to the simulator", exact, len(sim))
	}
	return nil
}

// timeToAccuracy scores an episode's model copies in round order and
// returns the first that reaches the target: the wall time since round 0
// began, the cluster's wire bytes so far (every client's frames have the
// same sizes, so client 0's count times the cluster size is exact) and the
// round. ok is false when the target was never reached.
func timeToAccuracy(s spec, ep *episodeResult) (secs, bytes float64, round int, ok bool) {
	in := ep.in
	net := in.model(stats.SplitRNG(0, 0)) // weights are overwritten below
	for _, e := range ep.evals {
		nn.SetFlat(net.Params(), e.model)
		if _, acc := fl.EvaluateModel(net, in.test, 256); acc >= s.TargetAcc {
			return e.at.Sub(ep.joined).Seconds(), float64(e.bytes) * float64(s.Clients), e.round, true
		}
	}
	return 0, 0, 0, false
}
