// Command dcsweep runs the repo's gated sweeps — the live-ring
// measurements behind each BENCH_*.json — from the one suite table in
// internal/experiments:
//
//	dcsweep [-short] [-seed N] [-out FILE] <suite>|all
//
// A suite prints its table, writes a snapshot in the shared envelope
// (BENCH_<suite>.json unless -out names another file) and is judged by
// its result's Gate(); dcsweep exits non-zero if any suite failed to
// run or missed a gate, after running every suite it was asked for.
// scripts/bench.sh runs `all`; CI runs each suite with -short.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	short := flag.Bool("short", false, "CI-sized sweeps under their short thresholds")
	seed := flag.Int64("seed", 0, "dataset/workload seed (0 = each suite's default)")
	out := flag.String("out", "", "snapshot path, one suite only (default BENCH_<suite>.json)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dcsweep [-short] [-seed N] [-out FILE] <suite>|all\nsuites:")
		for _, s := range experiments.Suites {
			fmt.Fprintln(os.Stderr, "  "+s.Name)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	var run []experiments.Suite
	for _, s := range experiments.Suites {
		if flag.Arg(0) == "all" || flag.Arg(0) == s.Name {
			run = append(run, s)
		}
	}
	if flag.NArg() != 1 || len(run) == 0 || (len(run) > 1 && *out != "") {
		flag.Usage()
		os.Exit(2)
	}

	failed := 0
	for _, s := range run {
		if err := sweep(s, *short, *seed, *out); err != nil {
			fmt.Fprintf(os.Stderr, "dcsweep: %s: %v\n", s.Name, err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// sweep runs one suite, prints and snapshots its result, and returns
// its first missed gate.
func sweep(s experiments.Suite, short bool, seed int64, out string) error {
	if seed == 0 {
		seed = s.Seed
	}
	if out == "" {
		out = "BENCH_" + s.Name + ".json"
	}
	fmt.Printf("== %s sweep (short=%v, seed=%d) ==\n", s.Name, short, seed)
	res, err := s.Run(short, seed)
	if err != nil {
		return err
	}
	fmt.Print(res)
	env := experiments.NewEnvelope(s.Name, short, res)
	if err := env.Write(out); err != nil {
		return err
	}
	fmt.Printf("== wrote %s ==\n", out)
	if err := env.Gates.Err(); err != nil {
		return fmt.Errorf("gate: %w", err)
	}
	return nil
}
