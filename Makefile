GO ?= go
VET := bin/desword-vet

.PHONY: all check build test vet fmt race bench bench-smoke benchmark-smoke telemetry-smoke events-smoke store-smoke saturation-smoke lint analyzers tidy fuzz-short

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

race:
	$(GO) test -race ./internal/obs ./internal/node ./internal/core ./internal/trace ./internal/wire ./internal/zkedb ./internal/zkedb/store ./internal/poc ./internal/telemetry ./internal/events ./internal/reputation ./internal/rsavc ./internal/qmercurial

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs a tiny crypto-engine experiment (E10) end to end and
# asserts from the JSON metrics snapshot that the proof cache actually served
# hits — a cheap CI guard that the bench harness, the -metrics-out JSON path
# and the cache instrumentation stay wired together.
bench-smoke:
	$(GO) run ./cmd/desword-bench -exp crypto -fast -reps 2 -db 4 -metrics-out bench-smoke.json
	@hits=$$(awk -F'"value":' '/desword_proofcache_hits/ {gsub(/[^0-9].*/, "", $$2); print $$2}' bench-smoke.json); \
	rm -f bench-smoke.json; \
	if [ -z "$$hits" ] || [ "$$hits" -lt 1 ]; then \
		echo "bench-smoke: expected desword_proofcache_hits >= 1, got '$$hits'"; exit 1; \
	fi; \
	echo "bench-smoke: desword_proofcache_hits = $$hits"

# benchmark-smoke runs the benchmark module's own tests (benchmark/README.md):
# the metric catalogue check and a short run of every workload, about a
# minute. The benchmark judges every performance change, so a change to the
# packages it deploys must not break it unnoticed.
benchmark-smoke:
	cd benchmark && $(GO) test .

# telemetry-smoke runs the fleet-telemetry pipeline end to end over real TCP
# (see TestTelemetrySmoke): traced queries against a served chain, registry
# pulls over the wire telemetry message, then asserts /debug/statusz?format=json
# carries per-peer quantiles and SLO states and that a slow-query exemplar's
# trace id resolves at /debug/traces/<id>.
telemetry-smoke:
	$(GO) test -run '^TestTelemetrySmoke$$' -count=1 -v ./internal/telemetry

# events-smoke runs the query flight recorder end to end over real TCP
# (see TestEventsSmoke): journaled queries against a served chain, then an
# offline desword-events-style scan asserting the journal's aggregates match
# the proxy's live metrics and that slow queries carry hop breakdowns.
events-smoke:
	$(GO) test -run '^TestEventsSmoke$$' -count=1 -v ./internal/events

# store-smoke runs the durable node-store lifecycle end to end (see
# TestStoreSmoke): commit a file-backed tree with small batches, update it
# incrementally, reopen it cold and verify ownership and non-ownership
# proofs against the updated commitment — the whole DESIGN.md §13 path a
# restarted participant depends on.
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

# fuzz-short exercises every wire/envelope fuzz target (the batch envelopes
# included), the proof and node-store decoders, and the proxy's
# verified-proof memo against fresh verification, briefly; CI runs it so
# decoder and verifier regressions surface without waiting for a long fuzz
# campaign.
fuzz-short:
	$(GO) test -run='^$$' -fuzz='^FuzzProofUnmarshal$$' -fuzztime=20s ./internal/zkedb
	$(GO) test -run='^$$' -fuzz='^FuzzVerifyMemo$$' -fuzztime=20s ./internal/poc
	$(GO) test -run='^$$' -fuzz='^FuzzStoreReopen$$' -fuzztime=20s ./internal/zkedb/store
	$(GO) test -run='^$$' -fuzz='^FuzzReadMessage$$' -fuzztime=20s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzEnvelopeHeaderCompat$$' -fuzztime=20s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeProof$$' -fuzztime=20s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzBatchRequestCompat$$' -fuzztime=20s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzBatchResultCompat$$' -fuzztime=20s ./internal/wire
