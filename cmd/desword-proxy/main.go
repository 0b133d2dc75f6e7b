// Command desword-proxy runs DE-Sword's trustworthy query proxy as a TCP
// daemon: it generates the public parameter ps, accepts POC-list submissions
// from initial participants, answers product path information queries from
// supply-chain applications, and maintains the public reputation ledger.
//
// Usage:
//
//	desword-proxy -listen 127.0.0.1:7700 -dir participants.json -admin 127.0.0.1:6060
//
// participants.json maps participant ids to their listen addresses:
//
//	{"v0": "127.0.0.1:7701", "v1": "127.0.0.1:7702"}
//
// With -admin set, an HTTP listener exposes /metrics (Prometheus text
// format), /healthz (liveness), /debug/pprof, /debug/traces and
// /debug/events, whose entries link each sampled query to its trace.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"desword/internal/core"
	"desword/internal/events"
	"desword/internal/node"
	"desword/internal/obs"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/trace"
	"desword/internal/zkedb"
)

func main() {
	if err := run(); err != nil {
		slog.Error("desword-proxy failed", "err", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen  = flag.String("listen", "127.0.0.1:7700", "address to serve the proxy protocol on")
		dirFile = flag.String("dir", "", "JSON file mapping participant ids to addresses (required)")
		admin   = flag.String("admin", "", "optional admin HTTP address serving /metrics, /healthz and /debug/pprof (e.g. :6060)")
		q       = flag.Int("q", 16, "ZK-EDB branching factor (power of two)")
		height  = flag.Int("height", 32, "ZK-EDB tree height")
		keyBits = flag.Int("keybits", 128, "product-id digest bits")
		modulus = flag.Int("modulus", 1024, "RSA modulus bits")
		sample  = flag.Float64("trace-sample", 0, "fraction of path queries to trace in [0,1]; traces appear under /debug/traces on the admin listener")
		workers = flag.Int("admission-workers", 0, "concurrently admitted requests at the proxy front door (0 = gate disabled)")
		queue   = flag.Int("admission-queue", 0, "requests waiting for an admission slot (negative = none, 0 = 2x workers)")
		logCfg  obs.LogConfig
		tcfg    node.ClientConfig
		evCfg   events.Config
	)
	logCfg.RegisterFlags(flag.CommandLine)
	tcfg.RegisterFlags(flag.CommandLine)
	evCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()
	logger, err := logCfg.Setup(os.Stderr)
	if err != nil {
		return err
	}
	obs.RegisterProcessMetrics(obs.Default)
	trace.Default.SetService("proxy")
	trace.Default.SetSampleRate(*sample)
	if *dirFile == "" {
		return fmt.Errorf("-dir is required")
	}
	data, err := os.ReadFile(*dirFile)
	if err != nil {
		return fmt.Errorf("reading directory: %w", err)
	}
	var dir map[poc.ParticipantID]string
	if err := json.Unmarshal(data, &dir); err != nil {
		return fmt.Errorf("parsing directory: %w", err)
	}

	params := zkedb.Params{Q: *q, H: *height, KeyBits: *keyBits, ModulusBits: *modulus}
	logger.Info("generating public parameter ps",
		"q", params.Q, "h", params.H, "keybits", params.KeyBits, "modulus", params.ModulusBits)
	genStart := time.Now()
	ps, err := poc.PSGen(params)
	if err != nil {
		return err
	}
	logger.Info("public parameter ready", "elapsed", time.Since(genStart))

	directory := node.DirectoryResolver(dir, tcfg.Options()...)
	defer directory.Close()

	// The flight recorder: one wide event per completed query (and per
	// handled node request), in the ring always, in a JSONL journal when
	// -events-dir is set.
	sink, err := evCfg.Build("proxy")
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sink.Close(); cerr != nil {
			logger.Warn("closing event journal", "err", cerr)
		}
	}()

	if *admin != "" {
		adminSrv, err := obs.ServeAdmin(*admin, obs.Default,
			obs.WithRoute("/debug/events", events.Explorer(sink.Ring())))
		if err != nil {
			return err
		}
		defer func() {
			if cerr := adminSrv.Close(); cerr != nil {
				logger.Warn("closing admin listener", "err", cerr)
			}
		}()
		logger.Info("admin listener up", "addr", adminSrv.Addr())
	}

	proxy := core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), directory.Resolver(), core.ProxyConfig{EventSink: sink})
	srvOpts := []node.Option{node.WithTimeout(tcfg.Timeout), node.WithEventSink(sink)}
	if *workers > 0 || *queue != 0 {
		srvOpts = append(srvOpts, node.WithAdmission(*workers, *queue))
	}
	srv, err := node.ServeProxy(context.Background(), *listen, proxy, srvOpts...)
	if err != nil {
		return err
	}
	logger.Info("proxy listening", "addr", srv.Addr(), "participants", len(dir))

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	sig := <-sigCh
	logger.Info("shutting down", "signal", sig.String())
	return srv.Close()
}
