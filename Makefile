# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: verify test build fmt vet race fuzz loc examples bench bench-check

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
	$(GO) test -race ./internal/obsv ./internal/core ./internal/simmem ./internal/apps/... ./internal/kvnode ./internal/chaos ./cmd/kvserve ./cmd/hrmsim

# Every fuzz target in the module for 10 s each, one target per
# `go test` call (-fuzz accepts a single target). New inputs are
# minimized for at most 1 s, not the 60 s default that would stall a
# short run on the JSON readers' inputs. A failing input is saved under
# the package's testdata/fuzz/ and replays in `make test`. For a longer
# run of one target, call `go test -fuzz` directly.
fuzz:
	@grep -rl --include='*_test.go' '^func Fuzz' . | sort | while read -r f; do \
		for fn in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$$f"); do \
			echo "fuzz: $$(dirname $$f) $$fn"; \
			$(GO) test "$$(dirname $$f)" -run '^$$' -fuzz "^$$fn\$$" -fuzztime 10s -fuzzminimizetime 1s -parallel 2 || exit 1; \
		done; \
	done

# Run every example program end to end; `build` only compiles them.
examples:
	@for d in examples/*/; do \
		echo "examples: $$d"; \
		$(GO) run "./$$d" >/dev/null || exit 1; \
	done

# Non-test Go lines outside bench/, the figure the simplicity PRs quote;
# then the _test.go lines outside bench/ under a label.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l
	@echo "test: $$(find . -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"

# hrmbench: every workload and metric, checked against bench/expected
# (bench/README.md).
bench:
	$(GO) run ./bench -seed 1

# The exact half of hrmbench, fast enough for CI (40 s measured on a 2-vCPU Linux host): each
# workload's traced pass at seed 1 for 2 s, then each campaign workload's
# end-to-end pass at seed 1 for 2 s. A traced pass compares its loads,
# stores, corrected, dirty-page and outcome counts with bench/expected, so
# a memory-path change that alters a single access count fails here. An
# end-to-end pass runs campaigns that record their own golden run, and
# compares at least four campaigns' plan, outcome histogram, requests and
# incorrect counts. Either exits non-zero on any difference. Timings they
# print are not a measurement.
BENCH_WORKLOADS = camp-websearch-secded-soft camp-kvstore-none-hard camp-graphmine-none-soft serve-get-secded serve-mixed-faults-secded
BENCH_CAMPAIGNS = camp-websearch-secded-soft camp-kvstore-none-hard camp-graphmine-none-soft
BENCH_CHECKS = $(BENCH_WORKLOADS:%=%:1) $(BENCH_CAMPAIGNS:%=%:0)

bench-check:
	@out=$$(mktemp -d) && trap 'rm -rf "$$out"' EXIT && for c in $(BENCH_CHECKS); do \
		w=$${c%:*}; t=$${c#*:}; \
		echo "bench-check: $$w -trace $$t"; \
		$(GO) run ./bench -seed 1 -workload $$w -seconds 2 -trace $$t -out "$$out" >"$$out/log" 2>&1 \
			|| { cat "$$out/log"; exit 1; }; \
	done
