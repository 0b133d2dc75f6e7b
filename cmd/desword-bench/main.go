// Command desword-bench regenerates every table and figure of the DE-Sword
// paper's evaluation section (§VI) plus this repository's extension
// experiments. See DESIGN.md §5 for the experiment index and EXPERIMENTS.md
// for recorded paper-vs-measured results.
//
// Usage:
//
//	desword-bench -exp all            # everything (several minutes)
//	desword-bench -exp table2         # one experiment
//	desword-bench -exp fig5 -fast     # reduced sweep for a quick look
//	desword-bench -exp e2e -metrics-out bench-metrics.prom
//
// Experiments: tmc (E1), fig4a (E2), fig4b (E3), table2 (E4), fig5 (E5),
// baseline (E6), incentive (E7), e2e (E8), transport (E9), crypto (E10),
// telemetry (E11), events (E12), ablation (A1–A4), store (E13),
// saturation (E14).
//
// With -metrics-out, the process-wide metrics registry (proof generation and
// verification timings, query latencies, …) is snapshotted to the file after
// each experiment, so bench runs emit machine-readable telemetry alongside
// the rendered tables. A file ending in .json gets the registry's JSON form
// (one object per series); any other name gets Prometheus text format.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"desword/internal/bench"
	"desword/internal/obs"
	"desword/internal/sim"
	"desword/internal/trace"
	"desword/internal/zkedb"
)

func main() {
	if err := run(); err != nil {
		slog.Error("desword-bench failed", "err", err)
		os.Exit(1)
	}
}

// renderer is the common shape of every experiment result.
type renderer interface {
	Render(w io.Writer) error
}

func run() error {
	var (
		exp        = flag.String("exp", "all", "experiment: all|tmc|fig4a|fig4b|table2|fig5|baseline|incentive|e2e|transport|crypto|telemetry|events|ablation|store|saturation")
		satOut     = flag.String("saturation-out", "BENCH_saturation.json", "write the E14 machine-readable report (p50/p99 vs offered load, shed counters, walks and coalesced joins) to this JSON file")
		modulus    = flag.Int("modulus", 1024, "RSA modulus bits for the qTMC layer")
		reps       = flag.Int("reps", 10, "repetitions per timing point (paper smooths over 50)")
		dbSize     = flag.Int("db", 8, "committed traces per participant in macro benches")
		fast       = flag.Bool("fast", false, "reduced parameter sweeps")
		metricsOut = flag.String("metrics-out", "", "snapshot the metrics registry to this file after each experiment (Prometheus text format)")
		traceOut   = flag.String("trace-out", "", "dump recorded traces to this file as JSON after each experiment")
		sample     = flag.Float64("trace-sample", 0, "fraction of path queries to trace in [0,1]; implied 1.0 when -trace-out is set and the rate is left at 0")
		logCfg     obs.LogConfig
	)
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()
	logger, err := logCfg.Setup(os.Stderr)
	if err != nil {
		return err
	}
	obs.RegisterProcessMetrics(obs.Default)
	if *traceOut != "" && *sample == 0 {
		// Asking for a trace dump but sampling nothing is always a mistake.
		*sample = 1
	}
	trace.Default.SetService("bench")
	trace.Default.SetSampleRate(*sample)

	qs := bench.PaperQs()
	qhs := bench.PaperQH()
	lengths := []int{2, 4, 6, 8, 10}
	if *fast {
		qs = []int{8, 32, 128}
		qhs = []bench.QH{{Q: 8, H: 43}, {Q: 32, H: 26}, {Q: 128, H: 19}}
		lengths = []int{2, 4, 6}
	}

	// experiments preserves the historical run order of -exp all.
	type experiment struct {
		name string
		run  func() error
	}
	render := func(t renderer, err error) error {
		if err != nil {
			return err
		}
		return t.Render(os.Stdout)
	}
	experiments := []experiment{
		{"tmc", func() error { return bench.RunTMCMicro(*reps * 5).Render(os.Stdout) }},
		{"fig4a", func() error { return render(bench.RunFig4a(qs, 128, *modulus, *reps)) }},
		{"fig4b", func() error { return render(bench.RunFig4b(qs, 128, *modulus, *reps*5)) }},
		{"table2", func() error { return render(bench.RunTable2(qhs, *modulus, *dbSize)) }},
		{"fig5", func() error { return render(bench.RunFig5(qhs, *modulus, *dbSize, *reps)) }},
		{"baseline", func() error {
			params := zkedb.Params{Q: 16, H: 32, KeyBits: 128, ModulusBits: *modulus}
			return render(bench.RunBaselineComparison(params, 64))
		}},
		{"incentive", func() error {
			cfg := sim.DefaultConfig()
			pBads := []float64{0.005, 0.01, 0.02, cfg.BreakEvenPBad(), 0.1, 0.2}
			return render(bench.RunIncentive(cfg, pBads))
		}},
		{"e2e", func() error {
			params := zkedb.Params{Q: 16, H: 32, KeyBits: 128, ModulusBits: *modulus}
			if *fast {
				params = zkedb.TestParams()
			}
			return render(bench.RunE2E(params, lengths, *reps))
		}},
		{"transport", func() error {
			params := zkedb.Params{Q: 16, H: 32, KeyBits: 128, ModulusBits: *modulus}
			if *fast {
				params = zkedb.TestParams()
			}
			return render(bench.RunTransport(params, lengths, *reps))
		}},
		{"crypto", func() error {
			params := zkedb.Params{Q: 16, H: 32, KeyBits: 128, ModulusBits: *modulus}
			size := *dbSize * 8
			workers := []int{1, 2, 4, 8}
			if *fast {
				params = zkedb.TestParams()
				size = *dbSize
				workers = []int{1, 2, 4}
			}
			if err := render(bench.RunCryptoCommit(params, size, workers, *reps)); err != nil {
				return fmt.Errorf("E10a: %w", err)
			}
			if err := render(bench.RunCryptoProofCache(params, size, *reps)); err != nil {
				return fmt.Errorf("E10b: %w", err)
			}
			return nil
		}},
		{"telemetry", func() error {
			params := zkedb.Params{Q: 16, H: 32, KeyBits: 128, ModulusBits: *modulus}
			length := 6
			if *fast {
				params = zkedb.TestParams()
				length = 4
			}
			return render(bench.RunTelemetry(params, length, *reps))
		}},
		{"events", func() error {
			params := zkedb.Params{Q: 16, H: 32, KeyBits: 128, ModulusBits: *modulus}
			length := 6
			if *fast {
				params = zkedb.TestParams()
				length = 4
			}
			return render(bench.RunEvents(params, length, *reps))
		}},
		{"ablation", func() error {
			params := zkedb.Params{Q: 16, H: 32, KeyBits: 128, ModulusBits: *modulus}
			sizes := []int{1, 4, 16, 64}
			if *fast {
				sizes = []int{1, 4, 16}
			}
			if err := render(bench.RunAblationDBSize(params, sizes, *reps)); err != nil {
				return fmt.Errorf("A1: %w", err)
			}
			moduli := []int{512, 1024, 2048}
			if *fast {
				moduli = []int{512, 1024}
			}
			if err := render(bench.RunAblationModulus(16, 32, moduli, *reps)); err != nil {
				return fmt.Errorf("A2: %w", err)
			}
			if err := render(bench.RunAblationSoftCache(params, *reps)); err != nil {
				return fmt.Errorf("A3: %w", err)
			}
			if err := render(bench.RunAblationTreeScheme(qhs, *modulus, *reps)); err != nil {
				return fmt.Errorf("A4: %w", err)
			}
			return nil
		}},
		{"store", func() error {
			// A shallow wide geometry: 40-bit digests hold 10k+ keys with
			// negligible collision odds while keeping per-key path cost low
			// enough that the two full rebuilds E13a needs stay tractable.
			params := zkedb.Params{Q: 16, H: 10, KeyBits: 40, ModulusBits: 512}
			base, ks := 10000, []int{1, 16, 256}
			lazyBase, cacheNodes := 2000, 64
			if *fast {
				params = zkedb.TestParams()
				base, ks = 400, []int{1, 8, 64}
				lazyBase, cacheNodes = 400, 32
			}
			if err := render(bench.RunStoreIncremental(params, base, ks)); err != nil {
				return fmt.Errorf("E13a: %w", err)
			}
			if err := render(bench.RunStoreLazy(params, lazyBase, cacheNodes, *reps)); err != nil {
				return fmt.Errorf("E13b: %w", err)
			}
			return nil
		}},
		{"saturation", func() error {
			// E14 measures the proxy tier (coalescing, admission), not the
			// crypto: test-size ZK-EDB parameters keep per-hop proof cost
			// small so the offered-load sweep saturates queueing, not modular
			// exponentiation. The top levels pass the one-proxy plateau.
			params := zkedb.TestParams()
			qpsLevels := []int{50, 200, 800, 1600, 3200}
			chainLen, products := 4, 32
			duration := 2 * time.Second
			if *fast {
				qpsLevels = []int{50, 200}
				chainLen, products = 3, 16
				duration = 500 * time.Millisecond
			}
			return render(bench.RunSaturation(params, qpsLevels, chainLen, products, duration, *satOut))
		}},
	}

	selected := strings.Split(*exp, ",")
	want := func(name string) bool {
		for _, s := range selected {
			if s == "all" || s == name {
				return true
			}
		}
		return false
	}

	ran := 0
	for _, e := range experiments {
		if !want(e.name) {
			continue
		}
		start := time.Now()
		if err := e.run(); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		logger.Info("experiment done", "exp", e.name, "elapsed", time.Since(start))
		ran++
		if *metricsOut != "" {
			if err := snapshotMetrics(*metricsOut); err != nil {
				return err
			}
			logger.Info("metrics snapshot written", "file", *metricsOut)
		}
		if *traceOut != "" {
			if err := snapshotTraces(*traceOut); err != nil {
				return err
			}
			logger.Info("trace snapshot written", "file", *traceOut, "traces", trace.Default.Recorder().Len())
		}
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}

// snapshotMetrics rewrites path with the current cumulative registry state,
// so the file always holds one consistent, complete exposition even if a
// later experiment is interrupted. The extension picks the format: .json
// gets the registry's JSON form, anything else Prometheus text.
func snapshotMetrics(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating metrics snapshot: %w", err)
	}
	write := obs.Default.WritePrometheus
	if strings.HasSuffix(path, ".json") {
		write = obs.Default.WriteJSON
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing metrics snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing metrics snapshot: %w", err)
	}
	return nil
}

// snapshotTraces rewrites path with every trace currently held by the
// recorder ring — the hop-latency-attribution input EXPERIMENTS.md's tracing
// recipe post-processes.
func snapshotTraces(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace snapshot: %w", err)
	}
	if err := trace.Default.Recorder().WriteJSON(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing trace snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace snapshot: %w", err)
	}
	return nil
}
