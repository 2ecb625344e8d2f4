GO ?= go

.PHONY: all build vet test race bench bench-json bench-check bench-compare soak soak-smoke experiments experiments-check manifest-smoke stream-smoke lora-smoke obs-smoke calib-smoke alert-smoke examples clean

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

# Machine-readable perf trajectory: run the sync- and decode-path
# benchmarks (FFT and direct sync correlation side by side, the hard
# despreader and frame decode, plus the stream scan stage and the defense
# detector) and aggregate ns/op, B/op, allocs/op into schema-versioned
# BENCH_sync.json.
bench-json:
	$(GO) run ./cmd/benchreport -out BENCH_sync.json -benchtime 100ms \
		-bench 'Synchronize|ReceiveAll|Correlator|StreamScan|DecodeAt|Despread|DetectorAnalyze' \
		./internal/dsp ./internal/zigbee ./internal/stream ./internal/emulation

# Validate the committed (or freshly generated) bench report schemas.
bench-check:
	$(GO) run ./cmd/benchreport -check BENCH_sync.json
	$(GO) run ./cmd/benchreport -check BENCH_stream.json

# Perf regression gate: re-run the sync-path benchmarks into a throwaway
# report and compare against the committed BENCH_sync.json baseline —
# fail on >25% ns/op slowdown or any allocs/op increase on the
# steady-state hot paths. Runs BEFORE bench-json in CI (bench-json
# overwrites the committed baseline in the working tree).
bench-compare:
	$(GO) run ./cmd/benchreport -out .bench-compare.json -benchtime 100ms -count 3 \
		-baseline BENCH_sync.json \
		-gate 'StreamScan|DecodeAt|DetectorAnalyze' \
		-bench 'Synchronize|ReceiveAll|Correlator|StreamScan|DecodeAt|Despread|DetectorAnalyze' \
		./internal/dsp ./internal/zigbee ./internal/stream ./internal/emulation
	rm -f .bench-compare.json

# Fleet soak: stampede the sharded, admission-controlled fleet with
# 256/1k/4k/10k concurrent replay sessions and aggregate frames/s, p99
# verdict latency, and drop/shed rate per offered load into
# BENCH_stream.json (the capacity-planning numbers README quotes).
soak:
	$(GO) run ./cmd/benchreport -out BENCH_stream.json -benchtime 1x \
		-bench 'EngineSaturation' ./internal/stream

# CI-sized soak: the 256-session point only, validated against the bench
# report schema alongside the committed baselines, then discarded.
soak-smoke:
	$(GO) run ./cmd/benchreport -out .soak-smoke.json -benchtime 1x \
		-bench 'EngineSaturation/sessions=256$$' ./internal/stream
	$(GO) run ./cmd/manifestcheck .soak-smoke.json BENCH_stream.json
	rm -f .soak-smoke.json

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

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/smartbulb
	$(GO) run ./examples/threshold_calibration
	$(GO) run ./examples/realworld
	$(GO) run ./examples/forged_command

clean:
	$(GO) clean ./...
