package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"desword/internal/core"
	"desword/internal/node"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
	"desword/internal/zkedb"
)

// This file implements experiment E14: proxy-tier saturation. An open-loop
// generator offers a fixed query rate against a real TCP deployment and
// records p50/p99 latency, achieved throughput, load sheds, and how many
// queries the proxy walked versus coalesced onto a concurrent walk, then
// repeats one deliberately overloaded level against a minimal admission
// gate, so the shedding path itself lands in the record.

// SaturationReport is the machine-readable E14 record (BENCH_saturation.json).
type SaturationReport struct {
	Title      string          `json:"title"`
	Chain      int             `json:"chain"`
	Products   int             `json:"products"`
	DurationMS int64           `json:"duration_ms"`
	Runs       []SaturationRun `json:"runs"`
}

// SaturationRun is one proxy deployment (admission gate) swept across the
// offered-load levels. Walks counts the walks the proxy ran and Coalesced
// the queries it served by joining a concurrent walk for the same product.
type SaturationRun struct {
	AdmissionWorkers int               `json:"admission_workers"`
	AdmissionQueue   int               `json:"admission_queue"`
	Forced           bool              `json:"forced_overload,omitempty"`
	Points           []SaturationPoint `json:"points"`
	Walks            uint64            `json:"walks"`
	Coalesced        uint64            `json:"coalesced"`
}

// SaturationPoint is one offered-load level: latency quantiles over the
// completed queries plus the shed/error triage.
type SaturationPoint struct {
	OfferedQPS  int     `json:"offered_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	Sent        int     `json:"sent"`
	Done        int     `json:"done"`
	Shed        int     `json:"shed"`
	Errors      int     `json:"errors"`
}

// saturationFixture keeps one set of participant servers alive across the
// proxy deployments (the proxy tier is what varies, not the supply chain).
type saturationFixture struct {
	ps       *poc.PublicParams
	dist     *core.DistributionResult
	dir      map[poc.ParticipantID]string
	products []poc.ProductID
	cleanup  []func() error
}

func (fx *saturationFixture) Close() error {
	var first error
	for i := len(fx.cleanup) - 1; i >= 0; i-- {
		if err := fx.cleanup[i](); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func newSaturationFixture(params zkedb.Params, chain, products int) (*saturationFixture, error) {
	ps, err := poc.PSGen(params)
	if err != nil {
		return nil, err
	}
	g, parts := supplychain.LineGraph(chain)
	members := make(map[poc.ParticipantID]*core.Member, chain)
	for id, p := range parts {
		members[id] = core.NewMember(ps, p)
	}
	tags, err := supplychain.MintTags("sat", products)
	if err != nil {
		return nil, err
	}
	dist, err := core.RunDistribution(ps, g, members, "p0", tags, nil, supplychain.FirstChildSplitter, "task-sat")
	if err != nil {
		return nil, err
	}
	fx := &saturationFixture{ps: ps, dist: dist, dir: make(map[poc.ParticipantID]string, chain)}
	for id := range dist.Ground.Paths {
		fx.products = append(fx.products, id)
	}
	sort.Slice(fx.products, func(i, j int) bool { return fx.products[i] < fx.products[j] })
	for id, m := range members {
		srv, serr := node.ServeParticipant(context.Background(), "127.0.0.1:0", m)
		if serr != nil {
			_ = fx.Close()
			return nil, serr
		}
		fx.cleanup = append(fx.cleanup, srv.Close)
		fx.dir[id] = srv.Addr()
	}
	return fx, nil
}

// runSaturationLevel offers qps for duration against the client, open-loop:
// the generator never slows down for a lagging proxy, which is exactly what
// saturates it.
func runSaturationLevel(client *node.ProxyClient, products []poc.ProductID, qps int, duration time.Duration) SaturationPoint {
	point := SaturationPoint{OfferedQPS: qps}
	interval := time.Second / time.Duration(qps)
	var mu sync.Mutex
	var latencies []time.Duration
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; time.Since(start) < duration; i++ {
		point.Sent++
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := products[i%len(products)]
			qStart := time.Now()
			_, err := client.QueryPath(context.Background(), id, core.Good)
			elapsed := time.Since(qStart)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				point.Done++
				latencies = append(latencies, elapsed)
			case strings.Contains(err.Error(), "load shed"):
				point.Shed++
			default:
				point.Errors++
			}
		}(i)
		time.Sleep(time.Until(start.Add(time.Duration(i+1) * interval)))
	}
	wg.Wait()
	wall := time.Since(start)
	point.AchievedQPS = float64(point.Done) / wall.Seconds()
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		point.P50MS = float64(latencies[len(latencies)/2].Microseconds()) / 1000
		point.P99MS = float64(latencies[len(latencies)*99/100].Microseconds()) / 1000
	}
	return point
}

// runSaturationRun deploys one proxy flavour over the shared fixture and
// sweeps it across the offered-load levels.
func runSaturationRun(fx *saturationFixture, cfg core.ProxyConfig, qpsLevels []int, duration time.Duration, forced bool) (run SaturationRun, err error) {
	run = SaturationRun{
		AdmissionWorkers: cfg.AdmissionWorkers,
		AdmissionQueue:   cfg.AdmissionQueue,
		Forced:           forced,
	}
	directory := node.DirectoryResolver(fx.dir)
	defer func() {
		if cerr := directory.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	proxy := core.NewProxyWithConfig(fx.ps, reputation.DefaultStrategy(), directory.Resolver(), cfg)
	proxySrv, err := node.ServeProxy(context.Background(), "127.0.0.1:0", proxy)
	if err != nil {
		return run, err
	}
	defer func() {
		if cerr := proxySrv.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	client := node.NewProxyClient(proxySrv.Addr(), node.WithPoolSize(64), node.WithRetries(0))
	defer client.Close()
	// rerr, not err: the named result feeds the deferred Close handlers
	// (desword/shadow).
	if rerr := client.RegisterList(context.Background(), "task-sat", fx.dist.List); rerr != nil {
		return run, rerr
	}
	for _, qps := range qpsLevels {
		run.Points = append(run.Points, runSaturationLevel(client, fx.products, qps, duration))
	}
	stats := proxy.ShardStats()[0]
	run.Walks, run.Coalesced = stats.Queries, stats.Coalesced
	return run, nil
}

// RunSaturation runs E14: one proxy over every offered-load level behind a
// generous admission gate, then one forced-overload pass (one admission
// worker, no waiting room) that guarantees the shedding path is exercised
// and recorded. When outPath is non-empty the machine-readable report lands
// there as JSON.
func RunSaturation(params zkedb.Params, qpsLevels []int, chain, products int, duration time.Duration, outPath string) (*Table, error) {
	t := &Table{
		Title: "E14: proxy saturation — latency vs offered load",
		Note: fmt.Sprintf("chain=%d products=%d, open-loop %s per level over TCP (localhost); final row forces overload through a 1-worker gate; walks and coalesced joins are per run",
			chain, products, duration),
		Headers: []string{"run", "offered qps", "achieved qps", "p50", "p99", "shed", "errors", "walks", "coalesced"},
	}
	fx, err := newSaturationFixture(params, chain, products)
	if err != nil {
		return nil, fmt.Errorf("bench: saturation fixture: %w", err)
	}
	defer fx.Close()

	report := &SaturationReport{
		Title:      t.Title,
		Chain:      chain,
		Products:   products,
		DurationMS: duration.Milliseconds(),
	}
	addRows := func(run SaturationRun) {
		label := "proxy"
		if run.Forced {
			label = "forced"
		}
		for _, p := range run.Points {
			t.AddRow(label, fmt.Sprint(p.OfferedQPS), fmt.Sprintf("%.0f", p.AchievedQPS),
				fmt.Sprintf("%.2f ms", p.P50MS), fmt.Sprintf("%.2f ms", p.P99MS),
				fmt.Sprint(p.Shed), fmt.Sprint(p.Errors), fmt.Sprint(run.Walks), fmt.Sprint(run.Coalesced))
		}
	}
	run, err := runSaturationRun(fx, core.ProxyConfig{AdmissionWorkers: 32, AdmissionQueue: 64}, qpsLevels, duration, false)
	if err != nil {
		return nil, fmt.Errorf("bench: saturation: %w", err)
	}
	report.Runs = append(report.Runs, run)
	addRows(run)
	// Forced overload: one worker, no waiting room — any overlap sheds.
	maxQPS := qpsLevels[len(qpsLevels)-1]
	forcedCfg := core.ProxyConfig{AdmissionWorkers: 1, AdmissionQueue: -1}
	forced, err := runSaturationRun(fx, forcedCfg, []int{maxQPS}, duration, true)
	if err != nil {
		return nil, fmt.Errorf("bench: saturation forced overload: %w", err)
	}
	report.Runs = append(report.Runs, forced)
	addRows(forced)

	if outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("bench: writing saturation report: %w", err)
		}
	}
	return t, nil
}
