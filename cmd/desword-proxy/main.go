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
// format), /healthz, /debug/pprof, and /debug/statusz — a fleet view that
// polls every directory participant over the wire's telemetry message and
// shows per-endpoint request rates, latency quantiles, SLO budget burn, and
// exemplar trace links. With -slo set, objective breaches flip /healthz to
// 503 and, when -profile-dir is set, capture CPU+heap profiles into a
// bounded on-disk ring.
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
	"desword/internal/telemetry"
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
		pxCfg   core.ProxyConfig
		logCfg  obs.LogConfig
		tcfg    node.ClientConfig
		telCfg  telemetry.Config
		evCfg   events.Config
	)
	pxCfg.RegisterFlags(flag.CommandLine)
	logCfg.RegisterFlags(flag.CommandLine)
	tcfg.RegisterFlags(flag.CommandLine)
	telCfg.RegisterFlags(flag.CommandLine)
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

	// The collector snapshots the local registry on a ticker, scoring the
	// -slo objectives and capturing profiles on breach; the monitor adds the
	// fleet dimension, polling every directory participant over the wire's
	// idempotent telemetry message.
	collector, engine, err := telCfg.Build(obs.Default, "proxy")
	if err != nil {
		return err
	}
	collector.Start()
	defer collector.Stop()
	monitorOpts := []telemetry.MonitorOption{telemetry.WithPollInterval(telCfg.Interval)}
	if engine != nil {
		monitorOpts = append(monitorOpts, telemetry.WithObjectives(engine.Objectives()))
	}
	monitor := telemetry.NewMonitor(monitorOpts...)
	monitor.AddLocal("proxy", collector)
	for pid := range dir {
		responder, err := directory.Resolve(pid)
		if err != nil {
			return err
		}
		client, ok := responder.(*node.ResponderClient)
		if !ok {
			continue
		}
		monitor.AddPeer(string(pid), client.Telemetry)
	}
	monitor.Start()
	defer monitor.Stop()

	if *admin != "" {
		adminOpts := []obs.AdminOption{
			obs.WithRoute("/debug/statusz", telemetry.StatuszHandler(monitor)),
			obs.WithRoute("/debug/events", events.Explorer(sink.Ring())),
		}
		if engine != nil {
			adminOpts = append(adminOpts, obs.WithHealth(engine.Health))
		}
		adminSrv, err := obs.ServeAdmin(*admin, obs.Default, adminOpts...)
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

	pxCfg.EventSink = sink
	proxy := core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), directory.Resolver(), pxCfg)
	srvOpts := []node.Option{node.WithTimeout(tcfg.Timeout), node.WithEventSink(sink)}
	if pxCfg.AdmissionWorkers > 0 || pxCfg.AdmissionQueue != 0 {
		// The same admission settings gate the TCP front door, so overload
		// is shed before a request even reaches the proxy core.
		srvOpts = append(srvOpts, node.WithAdmission(pxCfg.AdmissionWorkers, pxCfg.AdmissionQueue))
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
