package main

import (
	"fmt"
	"strings"
	"time"

	"apf/internal/fl"
	"apf/internal/stats"
	"apf/internal/transport"
	"apf/internal/wire"
)

// layerUnits lists every per-layer metric with its unit. Every workload
// reports every name; a layer the workload does not exercise reports 0.
var layerUnits = map[string]string{
	"nn.train_ms": "ms",

	"core.post_iterate_ms": "ms", "core.prepare_upload_ms": "ms", "core.compact_ms": "ms",
	"core.expand_ms": "ms", "core.apply_download_ms": "ms",
	"core.frozen_frac": "ratio", "core.mask_generations": "count",

	"wire.decode_ns_per_scalar": "ns", "wire.encode_ns_per_scalar": "ns",
	"wire.up_frame_bytes": "B", "wire.down_frame_bytes": "B", "wire.frames_per_round": "count",

	"client.encode_ms": "ms", "client.write_ms": "ms", "client.wait_ms": "ms", "client.decode_ms": "ms",
	"client.reconnects": "count",

	"server.collect_ms": "ms", "server.reduce_ms": "ms", "server.commit_ms": "ms",
	"server.fanout_write_ms": "ms", "server.first_to_last_update_ms": "ms",
	"server.updates_accepted": "count", "server.updates_rejected": "count",
	"server.updates_stale": "count", "server.partial_rounds": "count",

	"validate.check_ns_per_scalar": "ns", "validate.rejections": "count",

	"fl.fold_ns_per_scalar": "ns", "fl.reduce_ns_per_scalar": "ns",
	"fl.partial_export_ns_per_scalar": "ns", "fl.partial_merge_ns_per_scalar": "ns",

	"checkpoint.wal_append_ms": "ms", "checkpoint.wal_bytes_per_round": "B",
	"checkpoint.snapshot_ms": "ms", "checkpoint.snapshots": "count",

	"relay.upstream_ms": "ms", "relay.upstream_bytes_per_round": "B", "relay.root_bytes_per_round": "B",

	"catchup.resumes": "count", "catchup.resume_ms": "ms", "catchup.bytes_per_resume": "B",
	"catchup.mode_replay": "count", "catchup.mode_snapshot": "count", "catchup.mode_sketch": "count",

	"proc.allocs_per_round": "count", "proc.alloc_kb_per_round": "kB",
	"proc.gc_cycles": "count", "proc.gc_cpu_frac": "ratio",

	"round.traced_p50_ms": "ms", "round.unattributed_ms": "ms", "trace.overhead_frac": "ratio",

	"converge.time_to_acc_s": "s", "converge.bytes_to_acc": "B", "converge.round_to_acc": "count",
}

// blockingPath lists the rows that lie on client 0's round: local training,
// its manager calls, its push, the tier's work between that push and the
// aggregate leaving, and the merge of the aggregate. Their sum plus
// round.unattributed_ms is round.traced_p50_ms by construction.
var blockingPath = []string{
	"nn.train_ms", "core.post_iterate_ms", "core.prepare_upload_ms", "core.compact_ms",
	"client.encode_ms", "client.write_ms", "server.collect_ms", "server.reduce_ms", "server.commit_ms",
	"server.fanout_write_ms", "client.decode_ms", "core.expand_ms", "core.apply_download_ms",
}

// layerTable is the per-layer table of one run: each traced episode's table,
// medians across episodes, plus the two numbers that need the timed
// episodes (tracing overhead, time and bytes to the accuracy target).
func layerTable(s spec, timed, traced []*episodeResult, timedRPS float64) map[string]metric {
	perEpisode := make(map[string][]float64)
	var tracedRounds int
	var tracedWindow float64
	for _, ep := range traced {
		for name, v := range episodeLayers(s, ep) {
			perEpisode[name] = append(perEpisode[name], v)
		}
		tracedRounds += len(ep.gapsMs)
		tracedWindow += ep.windowS
	}
	perEpisode["trace.overhead_frac"] = []float64{1 - float64(tracedRounds)/tracedWindow/timedRPS}

	if s.TargetAcc > 0 {
		for _, ep := range timed {
			if secs, bytes, round, ok := timeToAccuracy(s, ep); ok {
				perEpisode["converge.time_to_acc_s"] = append(perEpisode["converge.time_to_acc_s"], secs)
				perEpisode["converge.bytes_to_acc"] = append(perEpisode["converge.bytes_to_acc"], bytes)
				perEpisode["converge.round_to_acc"] = append(perEpisode["converge.round_to_acc"], float64(round))
			}
		}
	}

	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{median(perEpisode[name]), unit}
	}
	return out
}

// histMeanMS is the mean observation of a telemetry histogram series, in
// milliseconds (the registry keeps counts and sums, not samples).
func histMeanMS(snap map[string]float64, name, labels string) float64 {
	key, sumKey := name, name+"_sum"
	if labels != "" {
		key, sumKey = key+"{"+labels+"}", sumKey+"{"+labels+"}"
	}
	if snap[key] == 0 {
		return 0
	}
	return 1000 * snap[sumKey] / snap[key]
}

// sumSeries adds every series of a counter family.
func sumSeries(snap map[string]float64, name string) float64 {
	total := 0.0
	for k, v := range snap {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// episodeLayers computes one traced episode's per-layer numbers from its
// spans (measured rounds only), the tiers' telemetry registries, and a
// replay of the frames tapped at the episode's middle round through the
// layers' public functions.
func episodeLayers(s spec, ep *episodeResult) map[string]float64 {
	td := ep.trace
	tr := td.tr
	m := make(map[string]float64)
	rounds := float64(s.total())

	// Spans: per (client, round) self-time totals by name, so a parent
	// (nn.train, client.encode, client.decode) excludes the manager calls
	// made inside it.
	type key struct{ client, round int }
	self := selfTimes(tr.spans)
	sums := make(map[string]map[key]float64)
	fanoutStart := make(map[int]int64) // round → first aggregate write began
	writeEnd := make(map[int][]int64)  // round → each client's update fully written
	write0End := make(map[int]int64)   // the same, client 0 only
	held0 := make(map[int]int64)       // round → client 0 holds the whole aggregate
	for i, sp := range tr.spans {
		if sp.Round < s.Warmup {
			continue
		}
		switch sp.Name {
		case spanFanoutWrite:
			if at, ok := fanoutStart[sp.Round]; !ok || sp.Start < at {
				fanoutStart[sp.Round] = sp.Start
			}
			continue
		case spanClientWrite:
			writeEnd[sp.Round] = append(writeEnd[sp.Round], sp.End)
			if sp.Client == 0 {
				write0End[sp.Round] = sp.End
			}
		case spanClientWait:
			if sp.Client == 0 {
				held0[sp.Round] = sp.End
			}
		}
		if sums[sp.Name] == nil {
			sums[sp.Name] = make(map[key]float64)
		}
		sums[sp.Name][key{sp.Client, sp.Round}] += self[i]
	}
	med := func(name string) float64 {
		vals := make([]float64, 0, len(sums[name]))
		for _, v := range sums[name] {
			vals = append(vals, v)
		}
		return median(vals)
	}
	m["nn.train_ms"] = med(spanTrain)
	m["core.post_iterate_ms"] = med(spanPostIterate)
	m["core.prepare_upload_ms"] = med(spanPrepareUpload)
	m["core.compact_ms"] = med(spanCompact)
	m["core.expand_ms"] = med(spanExpand)
	m["core.apply_download_ms"] = med(spanApplyDownload)
	m["client.encode_ms"] = med(spanClientEncode)
	m["client.write_ms"] = med(spanClientWrite)
	m["client.wait_ms"] = med(spanClientWait)
	m["client.decode_ms"] = med(spanClientDecode)
	m["catchup.resume_ms"] = med(spanResume)
	m["client.reconnects"] = float64(td.reconnects)
	m["core.mask_generations"] = float64(td.maskGens)
	m["core.frozen_frac"] = stats.Mean(td.frozen)

	// The tier clients attach to, from its registry (phase means).
	m["server.reduce_ms"] = histMeanMS(td.edge, "apf_round_phase_seconds", `phase="reduce"`)
	m["server.commit_ms"] = histMeanMS(td.edge, "apf_round_phase_seconds", `phase="commit"`)
	m["server.updates_accepted"] = td.edge[`apf_updates_total{result="accepted"}`]
	m["server.updates_rejected"] = td.edge[`apf_updates_total{result="rejected"}`]
	m["server.updates_stale"] = td.edge[`apf_updates_total{result="stale"}`]
	m["server.partial_rounds"] = td.edge["apf_partial_rounds_total"]
	m["validate.rejections"] = sumSeries(td.edge, "apf_update_rejections_total")
	m["checkpoint.wal_append_ms"] = histMeanMS(td.edge, "apf_wal_append_seconds", "")
	m["checkpoint.wal_bytes_per_round"] = td.edge["apf_wal_bytes_total"] / rounds
	m["checkpoint.snapshot_ms"] = histMeanMS(td.edge, "apf_snapshot_seconds", "")
	m["checkpoint.snapshots"] = td.edge["apf_snapshots_total"]
	m["relay.upstream_ms"] = histMeanMS(td.edge, "apf_relay_upstream_seconds", "")
	m["relay.upstream_bytes_per_round"] = float64(td.upstreamBytes) / rounds
	m["relay.root_bytes_per_round"] = float64(td.rootBytes) / rounds
	m["catchup.mode_replay"] = td.edge[`apf_resume_mode_total{mode="replay"}`]
	m["catchup.mode_snapshot"] = td.edge[`apf_resume_mode_total{mode="snapshot"}`]
	m["catchup.mode_sketch"] = td.edge[`apf_resume_mode_total{mode="sketch"}`]
	m["catchup.resumes"] = float64(tr.resumes)
	if tr.resumes > 0 {
		m["catchup.bytes_per_resume"] = float64(tr.resumeBytes) / float64(tr.resumes)
	}

	// client.wait splits at the tier: server.collect_ms is the part of the
	// collect phase that blocks client 0 — from its update being on the wire
	// to the first aggregate frame leaving, less the reduce and commit
	// phases in between (the whole phase also spans every client's local
	// training) — and server.fanout_write_ms is the delivery that follows,
	// until client 0 holds the whole frame.
	var collect, fanout, skew []float64
	for round, at := range fanoutStart {
		if w0, ok := write0End[round]; ok {
			collect = append(collect, float64(at-w0)/1e6)
		}
		if h0, ok := held0[round]; ok {
			fanout = append(fanout, float64(h0-at)/1e6)
		}
		if ends := writeEnd[round]; len(ends) > 1 {
			first, last := ends[0], ends[0]
			for _, e := range ends {
				first, last = min(first, e), max(last, e)
			}
			skew = append(skew, float64(last-first)/1e6)
		}
	}
	if c := median(collect) - m["server.reduce_ms"] - m["server.commit_ms"]; c > 0 {
		m["server.collect_ms"] = c
	}
	m["server.fanout_write_ms"] = median(fanout)
	m["server.first_to_last_update_ms"] = median(skew)

	m["wire.frames_per_round"] = float64(tr.frames) / rounds
	replayFrames(s, tr, m)

	n := float64(len(ep.gapsMs))
	m["proc.allocs_per_round"] = float64(td.mem1.Mallocs-td.mem0.Mallocs) / n
	m["proc.alloc_kb_per_round"] = float64(td.mem1.TotalAlloc-td.mem0.TotalAlloc) / 1024 / n
	m["proc.gc_cycles"] = float64(td.mem1.NumGC - td.mem0.NumGC)
	m["proc.gc_cpu_frac"] = td.mem1.GCCPUFraction

	m["round.traced_p50_ms"] = median(ep.gapsMs)
	m["round.unattributed_ms"] = m["round.traced_p50_ms"]
	for _, row := range blockingPath {
		m["round.unattributed_ms"] -= m[row]
	}
	return m
}

// medianNs runs f five times, each after an untimed setup (nil for none),
// and returns f's median duration in nanoseconds.
func medianNs(setup, f func()) float64 {
	var ns []float64
	for i := 0; i < 5; i++ {
		if setup != nil {
			setup()
		}
		start := time.Now()
		f()
		ns = append(ns, float64(time.Since(start)))
	}
	return median(ns)
}

// replayFrames pushes the tapped round's frames back through wire, fl and
// the validator in isolation, for per-scalar costs of exactly the payloads
// this workload produces.
func replayFrames(s spec, tr *tracer, m map[string]float64) {
	if len(tr.up) == 0 || tr.down == nil {
		return
	}
	frames := append(append([][]byte(nil), tr.up...), tr.down)
	msgs := make([]wire.Msg, len(frames))
	scalars := 0
	var payloads [][]float64
	var weights []float64
	decode := func() {
		for i, f := range frames {
			msg, _, err := wire.Decode(f, 0)
			if err != nil {
				panic(fmt.Sprintf("bench: tapped frame does not decode: %v", err))
			}
			msgs[i] = msg
		}
	}
	decodeNs := medianNs(nil, decode)
	for _, msg := range msgs {
		switch u := msg.(type) {
		case *wire.UpdateMsg:
			scalars += len(u.Payload)
			payloads, weights = append(payloads, u.Payload), append(weights, u.Weight)
		case *wire.SparseUpdateMsg:
			scalars += u.Scalars()
			payloads, weights = append(payloads, u.Floats(nil)), append(weights, u.Weight)
		case *wire.GlobalMsg:
			scalars += len(u.Payload)
		case *wire.SparseGlobalMsg:
			scalars += u.Scalars()
		}
	}
	if scalars == 0 {
		return
	}
	var buf []byte
	encodeNs := medianNs(nil, func() {
		for _, msg := range msgs {
			buf = wire.Append(buf[:0], msg)
		}
	})
	m["wire.decode_ns_per_scalar"] = decodeNs / float64(scalars)
	m["wire.encode_ns_per_scalar"] = encodeNs / float64(scalars)
	m["wire.up_frame_bytes"] = float64(len(tr.up[0]))
	m["wire.down_frame_bytes"] = float64(len(tr.down))

	n := len(payloads)
	width := len(payloads[0])
	if width == 0 {
		return
	}
	folded := float64(n * width)
	stream := fl.NewAggregator(0)
	defer stream.Close()
	stream.SetStreaming(true)
	fold := func() {
		stream.Open(0, n)
		for i, p := range payloads {
			if err := stream.Add(i, p, weights[i]); err != nil {
				panic(fmt.Sprintf("bench: tapped update does not fold: %v", err))
			}
		}
	}
	m["fl.fold_ns_per_scalar"] = medianNs(nil, fold) / folded
	batch := fl.NewAggregator(0)
	defer batch.Close()
	dst := make([]float64, width)
	m["fl.reduce_ns_per_scalar"] = medianNs(func() {
		batch.Open(0, n)
		for i, p := range payloads {
			_ = batch.Add(i, p, weights[i]) // validated by the streaming fold above
		}
	}, func() { batch.Reduce(dst) }) / folded

	if s.Relays > 0 {
		var part fl.Partial
		m["fl.partial_export_ns_per_scalar"] = medianNs(fold, func() { stream.ExportPartial(&part) }) / float64(width)
		m["fl.partial_merge_ns_per_scalar"] = medianNs(func() { stream.Open(0, 1) }, func() {
			if err := stream.AddPartial(0, &part); err != nil {
				panic(fmt.Sprintf("bench: exported partial does not merge: %v", err))
			}
		}) / float64(width)
	}

	if s.Validate {
		v := transport.NewValidator(transport.ValidatorConfig{Clients: n, Dim: width})
		m["validate.check_ns_per_scalar"] = medianNs(nil, func() {
			for i, p := range payloads {
				norm, err := v.Check(i, 0, p, weights[i])
				if err != nil {
					panic(fmt.Sprintf("bench: tapped update fails validation: %v", err))
				}
				v.Commit(norm, p)
			}
		}) / folded
	}
}
