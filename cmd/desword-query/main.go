// Command desword-query is the supply-chain application client: it asks a
// running desword-proxy for a product's verifiable path information (good or
// bad flavour) and for the public reputation table.
//
// Usage:
//
//	desword-query -proxy 127.0.0.1:7700 -product drug-1 -quality good
//	desword-query -proxy 127.0.0.1:7700 -batch drug-1 drug-2 drug-3
//	echo drug-1 | desword-query -proxy 127.0.0.1:7700 -batch
//	desword-query -proxy 127.0.0.1:7700 -scores
//
// -batch queries every id given as positional arguments (or, with none, one
// id per stdin line), one query_path per distinct id and at most -pool-size
// at a time, and reports each id's outcome independently — one unreachable
// product never fails the rest.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"strings"
	"sync"

	"desword/internal/core"
	"desword/internal/events"
	"desword/internal/node"
	"desword/internal/obs"
	"desword/internal/poc"
	"desword/internal/trace"
)

func main() {
	if err := run(); err != nil {
		slog.Error("desword-query failed", "err", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		proxyAddr = flag.String("proxy", "127.0.0.1:7700", "proxy address")
		product   = flag.String("product", "", "product id to query")
		batch     = flag.Bool("batch", false, "batch mode: query every product id given as an argument (or per stdin line), -pool-size at a time")
		quality   = flag.String("quality", "good", "quality-check outcome: good|bad")
		scores    = flag.Bool("scores", false, "fetch the public reputation table instead")
		audit     = flag.Bool("audit", false, "fetch and verify the tamper-evident score history")
		jsonOut   = flag.Bool("json", false, "emit the query's canonical wide event as JSON instead of the human rendering")
		sample    = flag.Float64("trace-sample", 0, "client-side trace sampling rate in [0,1]")
		logCfg    obs.LogConfig
		tcfg      node.ClientConfig
	)
	logCfg.RegisterFlags(flag.CommandLine)
	tcfg.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if _, err := logCfg.Setup(os.Stderr); err != nil {
		return err
	}
	obs.RegisterProcessMetrics(obs.Default)
	trace.Default.SetService("query")
	trace.Default.SetSampleRate(*sample)
	// Query results render to stdout below — that is the command's output,
	// not logging; diagnostics go through slog.
	client := node.NewProxyClient(*proxyAddr, tcfg.Options()...)
	defer client.Close()

	if *audit {
		entries, err := client.AuditLog(context.Background())
		if err != nil {
			return err
		}
		fmt.Printf("audit chain verified: %d entries\n", len(entries))
		for _, entry := range entries {
			fmt.Printf("  #%-4d %-12s %+6.2f  product=%s  %s\n",
				entry.Seq, entry.Event.Participant, entry.Event.Delta,
				entry.Event.Product, entry.Event.Reason)
		}
		return nil
	}

	if *scores {
		table, err := client.Scores(context.Background())
		if err != nil {
			return err
		}
		ids := make([]poc.ParticipantID, 0, len(table))
		for v := range table {
			ids = append(ids, v)
		}
		sort.Slice(ids, func(i, j int) bool {
			if table[ids[i]] != table[ids[j]] {
				return table[ids[i]] > table[ids[j]]
			}
			return ids[i] < ids[j]
		})
		fmt.Println("public reputation scores:")
		for _, v := range ids {
			fmt.Printf("  %-12s %+.2f\n", v, table[v])
		}
		return nil
	}

	var q core.Quality
	switch *quality {
	case "good":
		q = core.Good
	case "bad":
		q = core.Bad
	default:
		return fmt.Errorf("unknown quality %q (want good|bad)", *quality)
	}

	if *batch {
		ids, err := batchIDs(flag.Args())
		if err != nil {
			return err
		}
		return runBatch(context.Background(), os.Stdout, client, ids, q, tcfg.PoolSize, *jsonOut)
	}

	if *product == "" {
		return fmt.Errorf("-product is required (or use -batch or -scores)")
	}

	result, err := queryPath(context.Background(), client, poc.ProductID(*product), q)
	if err != nil {
		return err
	}
	if *jsonOut {
		return printEvent(result)
	}
	if len(result.Path) == 0 {
		fmt.Printf("no participant admits processing %s — no verifiable origin exists\n", *product)
		// A dead-end query still carries evidence: any violations recorded
		// before the walk stalled name the participants whose answers were
		// caught lying. Swallowing them here hid exactly the partial
		// failures an investigator most needs.
		printViolations(result.Violations)
		printTraceID(result.TraceID)
		return nil
	}
	fmt.Printf("product %s (%s query, task %s):\n", result.Product, *quality, result.TaskID)
	for i, v := range result.Path {
		if tr, ok := result.Traces[v]; ok {
			fmt.Printf("  hop %d: %-12s trace=%q\n", i+1, v, tr.Data)
		} else {
			fmt.Printf("  hop %d: %-12s (identified, no trace recovered)\n", i+1, v)
		}
	}
	fmt.Printf("  complete=%v\n", result.Complete)
	printViolations(result.Violations)
	printTraceID(result.TraceID)
	return nil
}

// batchIDs collects the batch's product ids from the positional arguments,
// or — with none — one id per stdin line (blank lines skipped), so id lists
// pipe in from files and other tools.
func batchIDs(args []string) ([]poc.ProductID, error) {
	var ids []poc.ProductID
	if len(args) > 0 {
		for _, a := range args {
			ids = append(ids, poc.ProductID(a))
		}
		return ids, nil
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if id := strings.TrimSpace(sc.Text()); id != "" {
			ids = append(ids, poc.ProductID(id))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading product ids from stdin: %w", err)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("-batch needs product ids (arguments or stdin lines)")
	}
	return ids, nil
}

// queryPath runs one path query under a client-side span, so a sampled
// query continues its trace at the proxy.
func queryPath(ctx context.Context, client *node.ProxyClient, id poc.ProductID, q core.Quality) (*core.Result, error) {
	ctx, span := trace.Default.Start(ctx, "query.query_path",
		trace.String("product", string(id)), trace.String("quality", q.String()))
	result, err := client.QueryPath(ctx, id, q)
	span.SetError(err)
	span.End()
	return result, err
}

// batchItemJSON is the -json rendering of one id of a batch: the query's
// canonical wide event, or its error.
type batchItemJSON struct {
	Product string        `json:"product"`
	Error   string        `json:"error,omitempty"`
	Event   *events.Event `json:"event,omitempty"`
}

// outcome is one distinct id's answer.
type outcome struct {
	result *core.Result
	err    error
}

// runBatch sends one query_path per distinct id, at most poolSize at a time
// over the pooled client, and renders every given id's outcome in order; a
// repeated id is walked once and shares its twin's outcome. Per-id
// failures, load sheds included, are data, reported inline: only a failed
// write fails the command.
func runBatch(ctx context.Context, w io.Writer, client *node.ProxyClient, ids []poc.ProductID, q core.Quality, poolSize int, jsonOut bool) error {
	slot := make(map[poc.ProductID]int, len(ids))
	var distinct []poc.ProductID
	for _, id := range ids {
		if _, dup := slot[id]; !dup {
			slot[id] = len(distinct)
			distinct = append(distinct, id)
		}
	}
	outcomes := make([]outcome, len(distinct))
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(poolSize, 1))
	for i, id := range distinct {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			outcomes[i].result, outcomes[i].err = queryPath(ctx, client, id, q)
		}()
	}
	wg.Wait()

	if jsonOut {
		items := make([]batchItemJSON, len(ids))
		for i, id := range ids {
			o := outcomes[slot[id]]
			items[i].Product = string(id)
			switch {
			case o.err != nil:
				items[i].Error = o.err.Error()
			case o.result.Event == nil:
				items[i].Error = errNoEvent.Error()
			default:
				items[i].Event = o.result.Event
			}
		}
		b, err := json.MarshalIndent(struct {
			Items []batchItemJSON `json:"items"`
		}{items}, "", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, string(b))
		return err
	}
	var ok, failed int
	fmt.Fprintf(w, "batch of %d %s queries:\n", len(ids), q)
	for _, id := range ids {
		o := outcomes[slot[id]]
		switch {
		case o.err != nil:
			failed++
			fmt.Fprintf(w, "  %-12s ERROR: %v\n", id, o.err)
		case len(o.result.Path) == 0:
			ok++
			fmt.Fprintf(w, "  %-12s no verifiable origin\n", id)
		default:
			ok++
			fmt.Fprintf(w, "  %-12s path=%d hops complete=%v violations=%d task=%s\n",
				id, len(o.result.Path), o.result.Complete,
				len(o.result.Violations), o.result.TaskID)
		}
	}
	_, err := fmt.Fprintf(w, "  %d ok, %d failed\n", ok, failed)
	return err
}

// errNoEvent reports a path result without the proxy's wide event: a proxy
// attaches one to every result it returns.
var errNoEvent = errors.New("proxy returned a path result without its wide event")

// printEvent emits the query's canonical wide event, which the proxy
// assembles and ships with the path result, as indented JSON.
func printEvent(result *core.Result) error {
	if result.Event == nil {
		return errNoEvent
	}
	out, err := json.MarshalIndent(result.Event, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func printViolations(violations []core.Violation) {
	for _, violation := range violations {
		fmt.Printf("  VIOLATION by %s: %s (%s)\n", violation.Participant, violation.Type, violation.Detail)
	}
}

// printTraceID surfaces the proxy-side trace ID so an operator can pull the
// per-hop span timeline from the proxy's /debug/traces/<id> endpoint.
func printTraceID(id string) {
	if id != "" {
		fmt.Printf("  trace=%s (see /debug/traces/%s on the proxy admin endpoint)\n", id, id)
	}
}
