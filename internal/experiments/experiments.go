// Package experiments regenerates every table and figure of the paper's
// evaluation (§3 motivating studies and §7 evaluation). Each experiment is
// registered under the paper's artifact id (fig11, table2, ...) and is
// runnable through cmd/apfbench, the root bench suite, or directly.
//
// Experiments run at two scales. Quick shrinks models, datasets, client
// counts and round budgets so every experiment completes on a laptop CPU in
// seconds — the *shape* of each result (who wins, roughly by how much) is
// preserved, which is this reproduction's fidelity target (see DESIGN.md
// and EXPERIMENTS.md). Full approaches the paper's setup (50 clients, full
// LeNet-5/ResNet/LSTM geometry, hundreds of rounds) and takes hours on CPU.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"apf/internal/metrics"
)

// Scale selects experiment sizing.
type Scale int

// Scales.
const (
	// Quick runs a miniature of the experiment in seconds.
	Quick Scale = iota + 1
	// Full approaches the paper's setup (slow on CPU).
	Full
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case Quick:
		return "quick"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Output is the rendered result of one experiment.
type Output struct {
	ID      string
	Title   string
	Figures []*metrics.Figure
	Tables  []*metrics.Table
	Notes   []string
}

// Render writes a human-readable report.
func (o *Output) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n\n", o.ID, o.Title); err != nil {
		return err
	}
	for _, t := range o.Tables {
		if _, err := fmt.Fprintln(w, t.Markdown()); err != nil {
			return err
		}
	}
	for _, f := range o.Figures {
		if _, err := fmt.Fprintln(w, f.Summary()); err != nil {
			return err
		}
	}
	for _, n := range o.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Runner executes one experiment.
type Runner func(scale Scale, seed int64) (*Output, error)

// registry maps experiment ids to runners; titles carries the matching
// descriptions. Split into two maps to avoid an initialization cycle
// (runners call Title).
var registry = map[string]Runner{
	"fig1":   runFig1,
	"fig2":   runFig2,
	"fig3":   runFig3,
	"fig4":   runFig4,
	"fig5":   runFig5,
	"fig6":   runFig6,
	"fig7":   runFig7,
	"fig9":   runFig9,
	"fig11":  runFig11,
	"table1": runFig11,
	"table2": runTable2,
	"table3": runTable3,
	"table4": runTable4,
	"fig12":  runFig12,
	"fig13":  runFig13,
	"fig14":  runFig14,
	"fig15":  runFig15,
	"fig16":  runFig16,
	"fig17":  runFig17,
	"fig18":  runFig18,
	"fig19":  runFig19,
	"fig20":  runFig20,
	"fig21":  runFig21,
	"fig22":  runFig22,

	// Extensions beyond the paper's artifacts.
	"ext-ema":       runExtEMA,
	"ext-dp":        runExtDP,
	"ext-baselines": runExtBaselines,
}

// titles maps experiment ids to human-readable descriptions.
var titles = map[string]string{
	"fig1":   "Parameter evolution during training (Fig. 1)",
	"fig2":   "Average effective perturbation decay (Fig. 2)",
	"fig3":   "Per-tensor stabilization epochs (Fig. 3)",
	"fig4":   "Partial synchronization: local divergence (Fig. 4)",
	"fig5":   "Partial synchronization: accuracy loss (Fig. 5)",
	"fig6":   "Permanent freezing: accuracy loss (Fig. 6)",
	"fig7":   "Temporary stabilization (Fig. 7)",
	"fig9":   "Over-parameterized models keep wandering (Fig. 9)",
	"fig11":  "Convergence with and without APF (Fig. 11, Table 1)",
	"table1": "Best test accuracy per model (Table 1, from Fig. 11 runs)",
	"table2": "Cumulative transmission volume (Table 2)",
	"table3": "Average per-round time (Table 3)",
	"table4": "APF computation and memory overheads (Table 4)",
	"fig12":  "Extremely non-IID data: APF vs strawmen (Fig. 12)",
	"fig13":  "Accuracy vs Gaia and CMFL (Fig. 13)",
	"fig14":  "Cumulative traffic vs Gaia and CMFL (Fig. 14)",
	"fig15":  "Freezing-period control ablation (Fig. 15)",
	"fig16":  "APF# vs APF (Fig. 16)",
	"fig17":  "APF++ vs APF (Fig. 17)",
	"fig18":  "APF combined with fp16 quantization (Fig. 18)",
	"fig19":  "FedAvg vs FedProx vs FedProx+APF (Fig. 19)",
	"fig20":  "Threshold and check-frequency robustness (Fig. 20)",
	"fig21":  "Learning-rate sensitivity (Fig. 21)",
	"fig22":  "Synchronization-frequency sensitivity (Fig. 22)",

	"ext-ema":       "Extension: windowed vs EMA effective perturbation (§6.1 validation)",
	"ext-dp":        "Extension: APF under differential-privacy noise (§9)",
	"ext-baselines": "Extension: APF vs Top-K and stochastic quantization (§2.2 families)",
}

// Get returns the runner for id.
func Get(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// Title returns the human-readable title for id.
func Title(id string) string { return titles[id] }

// IDs returns all experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
