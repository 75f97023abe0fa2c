# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: verify test build fmt vet race bench

# Tier-1 verify (ROADMAP.md): the gate every change must pass.
verify: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Extended gate (ROADMAP.md): formatting, vet, race detector on the
# instrumented, concurrency-sensitive packages.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/obsv ./internal/core ./internal/simmem ./internal/apps/... ./internal/kvnode ./internal/chaos ./cmd/kvserve

# hrmbench: every workload and metric, checked against bench/expected
# (bench/README.md).
bench:
	$(GO) run ./bench -seed 1
