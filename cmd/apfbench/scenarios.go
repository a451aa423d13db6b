package main

import (
	"fmt"
	"os"

	"apf/internal/scenario"
)

// runScenarios executes a scenario matrix over the real transport stack,
// writes BENCH_scenarios.json to path, prints a per-cell summary, and
// fails (non-zero exit) when any CI gate is violated — the command is the
// regression check, not just the report generator.
func runScenarios(path, matrix string, seed int64, trials int) error {
	var cells []scenario.Config
	switch matrix {
	case "full":
		// The full benchmark is the defended matrix plus the defense
		// ablation tiers (norm-only → +cosine/review → +trimmed), so the
		// report both gates the defended TPRs and shows what each layer
		// buys over the last.
		cells = scenario.DefaultMatrix(seed, trials)
		cells = append(cells, scenario.DefenseMatrix(seed, trials)...)
	case "smoke":
		cells = scenario.SmokeMatrix(seed)
	default:
		return fmt.Errorf("unknown scenario matrix %q (want full or smoke)", matrix)
	}

	var rep scenario.Report
	err := writeReport(path, &rep, func(rep *scenario.Report) error {
		r, err := scenario.RunMatrix(matrix, cells, seed, scenario.DefaultGates(), func(name string) {
			fmt.Fprintf(os.Stderr, "scenario: %s\n", name)
		})
		if err != nil {
			return err
		}
		*rep = *r
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Printf("== scenarios: %s matrix, %d cells, seed %d ==\n\n", matrix, len(rep.Cells), seed)
	fmt.Printf("%-34s %7s %6s %6s %6s %10s\n", "cell", "acc", "TPR", "FPR", "TTQ", "wireB")
	for _, c := range rep.Cells {
		fmt.Printf("%-34s %7.3f %6s %6s %6s %10.0f\n",
			c.Cell.Name, c.FinalAccMean,
			rate(c.TruePositiveRate), rate(c.FalsePositiveRate), rate(c.TimeToQuarantineMean),
			c.WireMean)
	}
	fmt.Printf("\nwrote %s\n", path)

	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			fmt.Fprintln(os.Stderr, "gate violation:", v)
		}
		return fmt.Errorf("%d scenario gate violation(s)", len(rep.Violations))
	}
	fmt.Println("all scenario gates passed")
	return nil
}

// rate renders a detection metric, eliding the -1 "undefined" sentinel.
func rate(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}
