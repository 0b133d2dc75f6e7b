// Command desword-participant runs one supply-chain participant as a TCP
// daemon, and doubles as the initial participant's POC-list assembly tool.
//
// Serve mode — fetch ps from the proxy, commit the local trace database into
// a POC, then answer query interactions:
//
//	desword-participant -id v2 -listen 127.0.0.1:7702 \
//	    -proxy 127.0.0.1:7700 -traces v2-traces.json -write-poc v2-poc.json
//
// The traces file describes one distribution task's local state:
//
//	{
//	  "task_id": "task-1",
//	  "traces":   [{"product": "id1", "data": "op=process;station=3"}],
//	  "next_hops": {"id1": "v5"}
//	}
//
// Assemble mode — run once by the initial participant after collecting the
// POC files its descendants exported with -write-poc; composes the POC list
// and submits it to the proxy (§IV.B):
//
//	desword-participant -assemble -task task-1 -proxy 127.0.0.1:7700 \
//	    -pairs pairs.json -pocs v0-poc.json,v2-poc.json,v5-poc.json
//
// pairs.json: [{"parent": "v0", "child": "v2"}, {"parent": "v2", "child": "v5"}]
//
// With -admin set, an HTTP listener exposes /metrics (Prometheus text
// format), /healthz (liveness), /debug/pprof, /debug/traces and
// /debug/events.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"desword/internal/core"
	"desword/internal/events"
	"desword/internal/node"
	"desword/internal/obs"
	"desword/internal/poc"
	"desword/internal/supplychain"
	"desword/internal/trace"
)

func main() {
	if err := run(); err != nil {
		slog.Error("desword-participant failed", "err", err)
		os.Exit(1)
	}
}

// scenario is the human-editable trace database format.
type scenario struct {
	TaskID   string                              `json:"task_id"`
	Traces   []scenarioTrace                     `json:"traces"`
	NextHops map[poc.ProductID]poc.ParticipantID `json:"next_hops"`
}

type scenarioTrace struct {
	Product poc.ProductID `json:"product"`
	Data    string        `json:"data"`
}

func run() error {
	var (
		id        = flag.String("id", "", "participant identity (serve mode)")
		listen    = flag.String("listen", "127.0.0.1:0", "address to serve query interactions on")
		proxyAddr = flag.String("proxy", "127.0.0.1:7700", "proxy address")
		admin     = flag.String("admin", "", "optional admin HTTP address serving /metrics, /healthz and /debug/pprof (e.g. :6061)")
		traces    = flag.String("traces", "", "JSON trace database file (serve mode)")
		writePOC  = flag.String("write-poc", "", "optional file to export this participant's POC to")
		assemble  = flag.Bool("assemble", false, "assemble and submit a POC list instead of serving")
		task      = flag.String("task", "", "task id (assemble mode)")
		pairs     = flag.String("pairs", "", "JSON POC-pair file (assemble mode)")
		pocs      = flag.String("pocs", "", "comma-separated POC files (assemble mode)")
		logCfg    obs.LogConfig
		clientCfg node.ClientConfig
		cryptoCfg core.CryptoConfig
		evCfg     events.Config
	)
	logCfg.RegisterFlags(flag.CommandLine)
	clientCfg.RegisterFlags(flag.CommandLine)
	cryptoCfg.RegisterFlags(flag.CommandLine)
	evCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()
	logger, err := logCfg.Setup(os.Stderr)
	if err != nil {
		return err
	}
	obs.RegisterProcessMetrics(obs.Default)
	// A participant never roots a trace: its server continues the caller's
	// trace when a request carries one.
	trace.Default.SetService("participant:" + *id)
	if *assemble {
		return runAssemble(logger, *proxyAddr, *task, *pairs, *pocs, clientCfg)
	}
	return runServe(logger, *id, *listen, *proxyAddr, *admin, *traces, *writePOC, clientCfg, cryptoCfg, evCfg)
}

func runServe(logger *slog.Logger, id, listen, proxyAddr, admin, tracesFile, writePOC string, clientCfg node.ClientConfig, cryptoCfg core.CryptoConfig, evCfg events.Config) error {
	if id == "" || tracesFile == "" {
		return fmt.Errorf("-id and -traces are required in serve mode")
	}
	data, err := os.ReadFile(tracesFile)
	if err != nil {
		return fmt.Errorf("reading traces: %w", err)
	}
	var sc scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		return fmt.Errorf("parsing traces: %w", err)
	}
	if sc.TaskID == "" {
		return fmt.Errorf("traces file missing task_id")
	}

	client := node.NewProxyClient(proxyAddr, clientCfg.Options()...)
	defer client.Close()
	ps, err := client.GetParams(context.Background())
	if err != nil {
		return fmt.Errorf("fetching ps from proxy: %w", err)
	}
	logger.Info("fetched public parameter", "proxy", proxyAddr)

	memberOpts, err := cryptoCfg.MemberOptions()
	if err != nil {
		return err
	}
	member := core.NewMember(ps, supplychain.NewParticipant(poc.ParticipantID(id)), memberOpts...)
	for _, tr := range sc.Traces {
		if err := member.Participant().RecordTrace(poc.Trace{Product: tr.Product, Data: []byte(tr.Data)}); err != nil {
			return err
		}
	}
	commitStart := time.Now()
	credential, err := member.CommitTask(sc.TaskID)
	if err != nil {
		return err
	}
	logger.Info("committed trace database",
		"task", sc.TaskID, "traces", len(sc.Traces), "elapsed", time.Since(commitStart))
	for product, next := range sc.NextHops {
		if err := member.SetNextHop(sc.TaskID, product, next); err != nil {
			return err
		}
	}
	if writePOC != "" {
		out, err := json.MarshalIndent(credential, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(writePOC, out, 0o644); err != nil {
			return fmt.Errorf("writing POC: %w", err)
		}
		logger.Info("POC exported", "participant", id, "file", writePOC)
	}

	// The flight recorder: one wide event per handled request, in the ring
	// always, in a JSONL journal when -events-dir is set.
	sink, err := evCfg.Build("participant:" + id)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sink.Close(); cerr != nil {
			logger.Warn("closing event journal", "err", cerr)
		}
	}()

	if admin != "" {
		adminSrv, err := obs.ServeAdmin(admin, obs.Default,
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

	srv, err := node.ServeParticipant(context.Background(), listen, member,
		node.WithTimeout(clientCfg.Timeout), node.WithEventSink(sink))
	if err != nil {
		return err
	}
	logger.Info("participant listening", "id", id, "addr", srv.Addr(), "task", sc.TaskID)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	sig := <-sigCh
	logger.Info("shutting down", "signal", sig.String())
	return srv.Close()
}

func runAssemble(logger *slog.Logger, proxyAddr, task, pairsFile, pocsArg string, clientCfg node.ClientConfig) error {
	if task == "" || pairsFile == "" || pocsArg == "" {
		return fmt.Errorf("-task, -pairs and -pocs are required in assemble mode")
	}
	list := poc.NewList()
	for _, file := range strings.Split(pocsArg, ",") {
		data, err := os.ReadFile(strings.TrimSpace(file))
		if err != nil {
			return fmt.Errorf("reading POC %s: %w", file, err)
		}
		var credential poc.POC
		if err := json.Unmarshal(data, &credential); err != nil {
			return fmt.Errorf("parsing POC %s: %w", file, err)
		}
		if err := list.AddPOC(credential); err != nil {
			return err
		}
	}
	data, err := os.ReadFile(pairsFile)
	if err != nil {
		return fmt.Errorf("reading pairs: %w", err)
	}
	var pairList []poc.Pair
	if err := json.Unmarshal(data, &pairList); err != nil {
		return fmt.Errorf("parsing pairs: %w", err)
	}
	for _, p := range pairList {
		list.AddPair(p.Parent, p.Child)
	}
	if err := list.Validate(); err != nil {
		return err
	}
	client := node.NewProxyClient(proxyAddr, clientCfg.Options()...)
	defer client.Close()
	if err := client.RegisterList(context.Background(), task, list); err != nil {
		return err
	}
	logger.Info("POC list submitted",
		"task", task, "participants", len(list.Participants()), "pairs", len(list.Pairs), "proxy", proxyAddr)
	return nil
}
