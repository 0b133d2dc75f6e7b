GO ?= go
VET := bin/desword-vet

.PHONY: all check build test vet fmt race bench bench-smoke benchmark-smoke events-smoke store-smoke saturation-smoke lint analyzers tidy fuzz-short

all: check

# check is the tier-1 gate plus static hygiene: build, tests, vet,
# formatting, and the race detector on the concurrency-heavy packages.
check: build test vet fmt race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# race runs the concurrency-heavy packages under the race detector, plus
# cmd/desword-query: its -batch mode fans distinct ids out over goroutines
# that share one pooled client.
race:
	$(GO) test -race ./internal/obs ./internal/node ./internal/core ./internal/trace ./internal/wire ./internal/zkedb ./internal/zkedb/store ./internal/poc ./internal/events ./internal/reputation ./internal/rsavc ./internal/qmercurial ./cmd/desword-query

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs every Benchmark function in the main module once
# (-benchtime 1x). It times nothing; it only keeps the harnesses that
# EXPERIMENTS.md cites from breaking unseen, since no test calls them.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# benchmark-smoke runs the benchmark module's own tests (benchmark/README.md):
# the metric catalogue check and a short run of every workload, about a
# minute. The benchmark judges every performance change, so a change to the
# packages it deploys must not break it unnoticed.
benchmark-smoke:
	cd benchmark && $(GO) test .

# events-smoke runs the query flight recorder end to end over real TCP
# (see TestEventsSmoke): journaled queries against a served chain, then an
# offline desword-events-style scan asserting the journal's aggregates match
# the proxy's live metrics and that slow queries carry hop breakdowns.
events-smoke:
	$(GO) test -run '^TestEventsSmoke$$' -count=1 -v ./internal/events

# store-smoke runs the durable node-store lifecycle end to end (see
# TestStoreSmoke): commit a whole database into a file-backed tree with
# small batches, close it, reopen it cold with a bounded cache and verify
# ownership and non-ownership proofs against the commitment — the whole
# DESIGN.md §13 path a restarted participant depends on.
store-smoke:
	$(GO) test -run '^TestStoreSmoke$$' -count=1 -v ./internal/zkedb

# saturation-smoke runs a miniature E14 end to end (see TestSaturationSmoke)
# under the race detector: open-loop load against one proxy over real TCP,
# then assertions on the recorded JSON report — walks plus coalesced joins
# account for every completed query, and the forced-overload pass actually
# shed through the admission gate. It is the only test that drives
# coalescing and admission open-loop with duplicate products in flight.
saturation-smoke:
	$(GO) test -race -run '^TestSaturationSmoke$$' -count=1 -v ./internal/bench

# lint is the correctness gate beyond tier-1: the project analyzers
# (desword-vet, see DESIGN.md §9) run through go vet's unitchecker driver
# so results cache per package, over the root module, the analyzer suite and
# the benchmark module, plus formatting, module tidiness, and the analyzer
# suite's own golden tests. Checkers that live outside the repo
# (govulncheck, x/tools nilness) run only when the host has them
# installed — the build image has no module proxy access, so they are
# advisory extras rather than gates.
lint: analyzers fmt tidy
	$(GO) vet -vettool=$(abspath $(VET)) ./...
	cd tools/analyzers && $(GO) vet -vettool=$(abspath $(VET)) ./...
	cd benchmark && $(GO) vet -vettool=$(abspath $(VET)) ./...
	cd tools/analyzers && $(GO) test ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi
	@if command -v nilness >/dev/null 2>&1; then \
		nilness ./...; \
	else \
		echo "lint: nilness not installed; skipping (go install golang.org/x/tools/go/analysis/passes/nilness/cmd/nilness@latest)"; \
	fi

# analyzers builds the desword-vet multichecker from its own module.
analyzers:
	cd tools/analyzers && $(GO) build -o $(abspath $(VET)) ./cmd/desword-vet

# tidy fails if go mod tidy would change any of the three modules.
tidy:
	$(GO) mod tidy -diff
	cd tools/analyzers && $(GO) mod tidy -diff
	cd benchmark && $(GO) mod tidy -diff

# fuzz-short runs every fuzz target in the main module briefly: the
# wire/envelope decoders, the proof and node-store decoders, the proxy's
# verified-proof memo against fresh verification, and the metrics
# exposition's label escaping; CI runs it so decoder and verifier
# regressions surface without waiting for a long fuzz campaign.
fuzz-short:
	$(GO) test -run='^$$' -fuzz='^FuzzProofUnmarshal$$' -fuzztime=20s ./internal/zkedb
	$(GO) test -run='^$$' -fuzz='^FuzzVerifyMemo$$' -fuzztime=20s ./internal/poc
	$(GO) test -run='^$$' -fuzz='^FuzzStoreReopen$$' -fuzztime=20s ./internal/zkedb/store
	$(GO) test -run='^$$' -fuzz='^FuzzReadMessage$$' -fuzztime=20s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzEnvelopeHeaderCompat$$' -fuzztime=20s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeProof$$' -fuzztime=20s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzExpositionLabelValues$$' -fuzztime=20s ./internal/obs
