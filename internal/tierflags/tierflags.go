// Package tierflags binds the flags of an aggregation tier's downward
// face — the client-serving side apf-server and apf-relay share — and
// resolves them into the transport configuration both daemons set.
package tierflags

import (
	"flag"
	"fmt"
	"time"

	"apf/internal/core"
	"apf/internal/preset"
	"apf/internal/transport"
	"apf/internal/wire"
)

// Flags are the downward-face flags: -io-timeout, -deadline,
// -min-clients, -checkpoint-dir, -snapshot-every, -history-rounds,
// -shadow, -max-norm-mult, -cosine-floor, -round-norm-mult and -codec.
// The exported fields hold the parsed values; Shadow, Validator and Codec
// are set by Resolve.
type Flags struct {
	IOTimeout     time.Duration
	RoundDeadline time.Duration
	MinClients    int
	CheckpointDir string
	SnapshotEvery int
	HistoryRounds int

	Shadow    *core.Config
	Validator *transport.ValidatorConfig
	Codec     wire.Codec

	shadow                       bool
	maxNorm, cosFloor, roundNorm float64
	codec                        string
}

// Bind declares the downward-face flags on fs.
func Bind(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.DurationVar(&f.IOTimeout, "io-timeout", 30*time.Second, "per-message network read/write deadline (a relay applies it on both faces: upstream it must exceed the root's full round time)")
	fs.DurationVar(&f.RoundDeadline, "deadline", 0, "round deadline enabling partial aggregation and session resume (0 = strict barrier)")
	fs.IntVar(&f.MinClients, "min-clients", 1, "minimum updates before a round deadline may aggregate")
	fs.StringVar(&f.CheckpointDir, "checkpoint-dir", "", "directory for the durable snapshot + WAL; a restarted process resumes from it bit-exactly (empty = not durable)")
	fs.IntVar(&f.SnapshotEvery, "snapshot-every", 5, "rotate the checkpoint snapshot every K committed rounds")
	fs.IntVar(&f.HistoryRounds, "history-rounds", 0, "cap the aggregate replay history to this many rounds, bounding memory; clients absent past the cap catch up in one exchange, a snapshot of the words their offered generations miss or of the whole state, instead of replay (0 = unbounded)")
	fs.BoolVar(&f.shadow, "shadow", false, "maintain a shadow APF replica of the client trajectory (requires clients with -scheme apf and the same -seed), enabling the stateful catch-up that ships only the words whose generations differ to clients absent past -history-rounds")
	fs.Float64Var(&f.maxNorm, "max-norm-mult", 0, "arm the update sanitization pipeline (non-finite and dimension checks plus the norm gate), striking updates whose L2 norm exceeds this multiple of the rolling median (0 = sanitization off); in a hierarchy it runs on the relays, never the root")
	fs.Float64Var(&f.cosFloor, "cosine-floor", 0, "with sanitization armed, also strike updates whose cosine against the decayed reference direction falls below this floor (0 = direction gate off; negative floors are meaningful)")
	fs.Float64Var(&f.roundNorm, "round-norm-mult", 0, "with sanitization armed, also strike accepted updates after the round when their norm exceeds this multiple of the round median (0 = post-round review off)")
	fs.StringVar(&f.codec, "codec", "dense", "the cluster's payload codec: dense | sparse | sparse-q16 (every client, relay and root of one cluster must set the same -codec; a peer refuses a tier that announces another)")
	return f
}

// Resolve validates the parsed flags and builds Validator, Codec, and —
// with -shadow — the Shadow replica's config from seed, the seed the
// clients' APF managers use.
func (f *Flags) Resolve(seed int64) error {
	if f.IOTimeout <= 0 {
		return fmt.Errorf("-io-timeout must be positive, got %v", f.IOTimeout)
	}
	if f.maxNorm > 0 {
		f.Validator = &transport.ValidatorConfig{
			MaxNormMult:   f.maxNorm,
			CosineFloor:   f.cosFloor,
			RoundNormMult: f.roundNorm,
		}
	} else if f.cosFloor != 0 || f.roundNorm != 0 {
		return fmt.Errorf("-cosine-floor and -round-norm-mult need -max-norm-mult to arm sanitization")
	}
	codec, err := wire.ParseCodec(f.codec)
	if err != nil {
		return fmt.Errorf("-codec: %w", err)
	}
	f.Codec = codec
	if f.SnapshotEvery <= 0 {
		return fmt.Errorf("-snapshot-every must be positive, got %d", f.SnapshotEvery)
	}
	if f.HistoryRounds < 0 {
		return fmt.Errorf("-history-rounds must be non-negative, got %d", f.HistoryRounds)
	}
	if f.shadow {
		cfg := preset.APFConfig(seed)
		f.Shadow = &cfg
	}
	return nil
}
