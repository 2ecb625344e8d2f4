GO ?= go

.PHONY: all build vet test race bench bench-compare experiments experiments-check manifest-smoke stream-smoke lora-smoke obs-smoke calib-smoke alert-smoke framebench-smoke examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detect the concurrent trial runner and everything built on it.
race:
	$(GO) test -race ./...

# One benchmark per paper table/figure plus per-package micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Same-host perf gate on the defense's per-frame path: check BASE out
# into a throwaway git worktree, then run the StreamScan, DecodeAt and
# DetectorAnalyze benchmarks (StreamScanLoRa at a fixed 40 ops) with
# GOGC=off in it and in the working tree for 10 alternating rounds. Fails when a benchmark's fastest repeat is >25%
# slower than BASE's, allocates more per op, or is missing. The
# worktree is removed whether the gate passes or fails.
BASE ?= HEAD~1

bench-compare:
	git worktree add --detach .bench-base $(BASE)
	status=0; $(GO) run ./cmd/benchreport .bench-base . || status=$$?; \
		git worktree remove --force .bench-base; exit $$status

# Regenerate every table and figure (~12 s at full trial counts).
experiments:
	$(GO) run ./cmd/experiments all

# Golden check: the full experiment suite is seeded, so its stdout must
# match the committed results/experiments_all.md byte for byte. After an
# intended change, refresh it with
#   go run ./cmd/experiments all > results/experiments_all.md
experiments-check:
	$(GO) run ./cmd/experiments all | diff -u results/experiments_all.md -

# Smoke-test the observability contract: run a small sweep with -manifest
# and validate the emitted JSON against the checked-in schema checker.
manifest-smoke:
	$(GO) run ./cmd/experiments table2 -trials 5 -manifest .manifest-smoke.json > /dev/null
	$(GO) run ./cmd/manifestcheck .manifest-smoke.json
	rm -f .manifest-smoke.json

# Smoke-test the online defense service: boot hideseekd on loopback,
# classify an authentic+emulated capture over HTTP and raw TCP, and
# validate the shutdown manifest.
stream-smoke:
	$(GO) test ./cmd/hideseekd -run TestStreamSmoke -count=1

# Smoke-test the second victim PHY end to end: boot hideseekd serving
# zigbee+lora, classify a Wi-Lo capture via HTTP ?proto=lora and the raw
# TCP #HSPROTO preamble, lint the proto-labeled metrics, and check the
# shutdown manifest records the served protocol set.
lora-smoke:
	$(GO) test ./cmd/hideseekd -run TestLoRaSmoke -count=1

# Smoke-test the telemetry surface: boot hideseekd with trace export on,
# lint /metrics and /v1/obs?format=prometheus with the in-repo Prometheus
# parser, check /healthz build/runtime/window fields, and join the
# shutdown trace NDJSON to the classify verdicts.
obs-smoke:
	$(GO) test ./cmd/hideseekd -run TestObsSmoke -count=1

# Smoke-test online calibration: boot hideseekd with -calib, warm the
# zigbee class up with labeled traffic, check the fitted threshold lands
# between the class populations, inject a drifted authentic population,
# and assert the drift counters / threshold gauge / admin endpoints.
calib-smoke:
	$(GO) test ./cmd/hideseekd -run TestCalibSmoke -count=1

# Smoke-test the SLO alert engine end to end: boot hideseekd with a
# tight latency rule, drive load until the rule transitions
# pending→firing on /v1/alerts, assert lint-clean ALERTS series on
# /metrics, stop the load, watch the rule resolve, and check the
# shutdown manifest records the fired alert.
alert-smoke:
	$(GO) test ./cmd/hideseekd -run TestAlertSmoke -count=1

# Smoke-test the frame-path benchmark end to end: a short traced run
# boots hideseekd, drives all three workloads (zigbee-stream,
# lora-classify, attack-forge) in one process, checks every verdict
# against the in-process stream.Process reference and the replays
# through stream.NewEngine, and exits non-zero on any failed operation.
framebench-smoke:
	bash framebench/run.sh --workload zigbee-stream --seed 1 --seconds 3 --trace 1

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/smartbulb
	$(GO) run ./examples/threshold_calibration
	$(GO) run ./examples/realworld
	$(GO) run ./examples/forged_command

clean:
	$(GO) clean ./...
