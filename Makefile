# Tier-1 verification: what CI (and the roadmap) gate on.
#
#   make check     build, vet, gofmt (every Go file outside testdata/),
#                  lint (the alewife-lint analyzer suite as
#                  a go vet vettool: determinism, engine confinement,
#                  pool discipline, hot-path allocs, nil-receiver
#                  guards — zero findings, no baseline),
#                  full test suite under the race detector, the e2ebench
#                  module's own tests (tiny-scale sim_digests, metric
#                  contract), then protocol stress smokes (8 seeds,
#                  2000 ops/node, live invariants + per-location SC
#                  history checking) on both perfect and lossy wires
#                  (seeded drop/dup/reorder with reliable delivery
#                  recovering)
#   make explore-smoke  depth-bounded schedule-space exploration (model
#                  checking) of a 4-node machine: every reachable
#                  interleaving within bounds must pass every oracle
#   make results-check  regenerate every table and CSV of a full-scale
#                  `alewife-bench -all` into a temp dir and diff it
#                  against the committed results/: any printed figure
#                  that moved fails. Its quick tier-1 counterpart is the
#                  golden internal/bench/testdata/all_quick_16.txt
#                  (`alewife-bench -all -quick -nodes 16`), which
#                  TestRunAllQuick compares byte for byte
#   make golden    regenerate both, results/ and the quick golden, when a
#                  change means to move simulated cycles
#   make digest-check  run each e2ebench workload once (seed 1, 1 s,
#                  untraced): fails when a sim_digest no longer matches
#                  e2ebench/baseline.json (run.sh exits 1) or when any run
#                  fails its checks (nonzero fail_frac); about 20 s plus
#                  the build
#   make stress    the longer fuzz run used before cutting a release
#   make perf      fixed workload suite -> BENCH_sim.json (ops/sec,
#                  wall-clock, allocs/op); later PRs gate on regressions
#   make perf-check  rerun the suite and fail if any workload regresses
#                  against the committed BENCH_sim.json (+15% ns/op or
#                  +0.5 allocs/op, best of 3 on wall-clock noise; cycle-
#                  attribution shares within 2% absolute per bucket);
#                  prints a per-workload delta table and names offenders
#   make perf-quick  trimmed workload suite to stdout, nothing written —
#                  fast local iteration while tuning a hot path
#   make cover     statement coverage with a per-package floor of
#                  $(COVER_FLOOR)% across internal/...
#
# Batch targets pass -parallel 0 (one worker per core): every seed and
# experiment is a self-contained simulation, and output is buffered and
# emitted in serial order, so results are byte-identical at any width.

GO ?= go

COVER_FLOOR ?= 60

.PHONY: check build vet fmt lint test e2ebench-test cover stress-smoke stress-smoke-lossy explore-smoke results-check golden digest-check stress bench perf perf-check perf-quick

check: build vet fmt lint test e2ebench-test cover stress-smoke stress-smoke-lossy explore-smoke results-check digest-check perf-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt gate. testdata/ is exempt: analyzer fixtures keep hand layouts
# their // want comments are written against.
fmt:
	@bad=$$(gofmt -l . | grep -v -e '/testdata/' -e '^\.bench_build/'); \
	if [ -n "$$bad" ]; then printf 'gofmt: unformatted files:\n%s\n' "$$bad"; exit 1; fi

# The project's own analyzer suite (cmd/alewife-lint), run through go
# vet's vettool protocol so the build cache keeps it incremental. Strict:
# there is no baseline file; exceptions live in the source as
# //alewife:allow comments with reasons.
lint:
	$(GO) build -o bin/alewife-lint ./cmd/alewife-lint
	$(GO) vet -vettool=$(CURDIR)/bin/alewife-lint ./...

test:
	$(GO) test -race ./...

# The e2ebench module pins the tiny-scale sim_digests and the
# metric/unit contract; it is its own module, so the root ./... never
# reaches it.
e2ebench-test:
	cd e2ebench && $(GO) test ./...

# Per-package statement-coverage floor for the simulator internals. The
# awk gate fails listing every package below $(COVER_FLOOR)%; FAIL lines
# are trapped too, since the pipe would otherwise eat go test's exit code.
cover:
	$(GO) test -cover ./internal/... | awk -v floor=$(COVER_FLOOR) '\
		{ print } \
		/^FAIL/ { bad = bad "\n  " $$2 " FAIL" } \
		/coverage:/ { if ($$5+0 < floor) { bad = bad "\n  " $$2 " " $$5 } } \
		END { if (bad != "") { printf "cover: packages below %d%% floor or failing:%s\n", floor, bad; exit 1 } }'

stress-smoke:
	$(GO) run ./cmd/alewife-stress -ops 2000 -seeds 8 -parallel 0

stress-smoke-lossy:
	$(GO) run ./cmd/alewife-stress -loss -ops 2000 -seeds 8 -parallel 0

explore-smoke:
	$(GO) run ./cmd/alewife-explore -nodes 4 -ops 10 -lines 2 -depth 24 -runs 300 -v
	$(GO) run ./cmd/alewife-explore -nodes 3 -ops 8 -lines 2 -faultpackets 3 -runs 300

results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/alewife-bench -all -parallel 0 -csv "$$tmp" > "$$tmp/full_run_64procs.txt" && \
	diff -r results "$$tmp" && echo "results-check: results/ matches a fresh alewife-bench -all"

golden:
	rm -f results/*.csv
	$(GO) run ./cmd/alewife-bench -all -parallel 0 -csv results > results/full_run_64procs.txt
	$(GO) run ./cmd/alewife-bench -all -quick -nodes 16 -parallel 0 > internal/bench/testdata/all_quick_16.txt

E2E_WORKLOADS = paper-sm paper-mp stress stress-lossy

digest-check:
	@for w in $(E2E_WORKLOADS); do \
		out=$$(bash e2ebench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0) || \
			{ printf '%s\n' "$$out"; echo "digest-check: $$w exited nonzero"; exit 1; }; \
		printf '%s: ' $$w; printf '%s\n' "$$out" | grep '^sim_digest'; \
		printf '%s\n' "$$out" | grep -q '^fail_frac 0 ' || \
			{ printf '%s\n' "$$out"; echo "digest-check: $$w has failing runs"; exit 1; }; \
	done

stress:
	$(GO) run ./cmd/alewife-stress -ops 5000 -seeds 64 -parallel 0
	$(GO) run ./cmd/alewife-stress -loss -ops 5000 -seeds 64 -parallel 0

bench:
	$(GO) run ./cmd/alewife-bench -all -parallel 0

perf:
	$(GO) run ./cmd/alewife-perf -attrib

perf-check:
	$(GO) run ./cmd/alewife-perf -check BENCH_sim.json

perf-quick:
	$(GO) run ./cmd/alewife-perf -quick -out -
