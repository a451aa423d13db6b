package main

import (
	"fmt"
	"os"

	"apf/internal/swarm"
)

// Scaling-benchmark geometry: a root over 32 edge relays at the paper's
// mid-size model dimension, measured at 100k and 1M simulated clients —
// a 10x population growth over which the root's per-round work must stay
// flat.
const (
	scalebenchRelays = 32
	scalebenchDim    = 256
	scalebenchRounds = 3
	scalebenchSeed   = 17
)

// scalebenchClients are the measured population scales, ascending.
var scalebenchClients = []int{100_000, 1_000_000}

// scalebenchReport is the BENCH_scale.json document. The flatness gate is
// evaluated on the deterministic quantities (boundary bytes and frames per
// round); root CPU is wall-clock and carries scheduler noise, so it gets a
// generous sanity bound that still rules out O(clients) root work.
type scalebenchReport struct {
	reportHeader

	Relays int `json:"relays"`
	Dim    int `json:"dim"`
	Rounds int `json:"rounds"`

	Runs []*swarm.Result `json:"runs"`

	// ClientGrowth is the population ratio between the last and first run;
	// RootBytesRatio/RootCPURatio are the corresponding root per-round work
	// ratios. Flat requires bytes ≤ 1.5x and CPU ≤ 3x across that growth.
	ClientGrowth   float64 `json:"client_growth"`
	RootBytesRatio float64 `json:"root_bytes_ratio"`
	RootCPURatio   float64 `json:"root_cpu_ratio"`
	EdgeCPURatio   float64 `json:"edge_cpu_ratio"`
	Flat           bool    `json:"flat"`
}

// runScalebench simulates the two-tier topology at each population scale,
// writes the report, and fails when the root's per-round work grows with
// the client count — the hierarchy's core claim.
func runScalebench(path string) error {
	rep := scalebenchReport{
		reportHeader: newReportHeader("two-tier discrete-event simulation through the real aggregation and wire-codec paths; " +
			"root work must stay flat as clients grow 10x (bytes ratio <= 1.5 hard, CPU ratio <= 3 as a noise-tolerant sanity bound); " +
			"oracle_match certifies bit-identity with a flat aggregation over all clients"),
		Relays: scalebenchRelays,
		Dim:    scalebenchDim,
		Rounds: scalebenchRounds,
	}
	if err := writeReport(path, &rep, measureScale); err != nil {
		return err
	}
	fmt.Printf("scalebench: %s written — %.0fx clients, root bytes %.3fx, root CPU %.2fx, edge CPU %.1fx\n",
		path, rep.ClientGrowth, rep.RootBytesRatio, rep.RootCPURatio, rep.EdgeCPURatio)
	if !rep.Flat {
		return fmt.Errorf("scalebench: root per-round work is not flat across %.0fx client growth (bytes %.3fx, cpu %.2fx)",
			rep.ClientGrowth, rep.RootBytesRatio, rep.RootCPURatio)
	}
	return nil
}

// measureScale fills rep with one oracle-checked swarm run per population
// scale and the growth ratios the flatness gate reads.
func measureScale(rep *scalebenchReport) error {
	for _, clients := range scalebenchClients {
		fmt.Fprintf(os.Stderr, "scalebench: %d clients over %d relays (dim %d, %d rounds)\n",
			clients, scalebenchRelays, scalebenchDim, scalebenchRounds)
		res, err := swarm.Run(swarm.Config{
			Clients: clients,
			Relays:  scalebenchRelays,
			Dim:     scalebenchDim,
			Rounds:  scalebenchRounds,
			Seed:    scalebenchSeed,
			Oracle:  true,
		})
		if err != nil {
			return err
		}
		if !res.OracleMatch {
			return fmt.Errorf("scalebench: %d-client two-tier trajectory diverged from the flat oracle", clients)
		}
		fmt.Fprintf(os.Stderr, "scalebench: %d clients — root %.0f B/round, %.3f ms root CPU/round, edge %.2f s, wall %.2f s\n",
			clients, res.RootBytesPerRound, 1e3*res.RootCPUPerRound, res.EdgeCPUSeconds, res.WallSeconds)
		rep.Runs = append(rep.Runs, res)
	}

	first, last := rep.Runs[0], rep.Runs[len(rep.Runs)-1]
	rep.ClientGrowth = float64(last.Clients) / float64(first.Clients)
	rep.RootBytesRatio = last.RootBytesPerRound / first.RootBytesPerRound
	rep.RootCPURatio = last.RootCPUPerRound / first.RootCPUPerRound
	rep.EdgeCPURatio = last.EdgeCPUSeconds / first.EdgeCPUSeconds
	rep.Flat = rep.RootBytesRatio <= 1.5 && rep.RootCPURatio <= 3
	return nil
}
