# Tier-1 gate plus the deeper checks CI and pre-commit runs use.

GO ?= go

# Minimum total statement coverage `make cover` enforces. Measured headroom:
# the suite sits around 82% — raise this as coverage grows, never lower it
# to make a failing build pass.
COVER_MIN ?= 75

.PHONY: build test vet race bench bench-json bench-check perfbench-check lifecycle-e2e serve-smoke verify fmt fmt-check cover lint vulncheck tidy-check

# Relative slowdown bench-check tolerates before failing, in percent.
# Benchmarks at -benchtime 1x are noisy; 30% separates "regressed" from
# "jittered" on the tracked hot paths.
BENCH_TOLERANCE ?= 30

# Staticcheck version the lint gate pins (see .github/workflows/ci.yml —
# keep the two in sync so local runs match CI).
STATICCHECK_VERSION ?= 2024.1.1

# govulncheck version the vulnerability gate pins (same sync rule).
GOVULNCHECK_VERSION ?= v1.1.4

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# -short skips the heaviest ablation drivers, which exceed the default
# per-package timeout under race instrumentation; everything else runs
# fully instrumented.
race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-json runs the offline-pipeline, batch-prediction, sharded fleet
# dispatch, admission-pipeline, and tracing-overhead benchmarks and
# snapshots their figures into BENCH_pipeline.json, the artifact CI
# archives to track the perf trajectory. Besides ns/op, every
# b.ReportMetric figure is published under a sanitized key
# (placements/s -> _placements_per_s), so the admission benchmarks'
# p50/p99 latency and placement throughput land in the baseline too. The
# -N GOMAXPROCS suffix is stripped so keys stay stable across runners.
bench-json:
	$(GO) test -bench 'BenchmarkProfileCatalog|BenchmarkCollectSamples|BenchmarkTrainPipeline|BenchmarkPredictBatch|BenchmarkOnlinePlacement|BenchmarkTraceOverhead|BenchmarkHotSwap' \
		-benchtime 1x -run '^$$' . > bench_pipeline.txt
	$(GO) test -bench 'BenchmarkFleetDispatch$$' -benchtime 5x -run '^$$' . >> bench_pipeline.txt
	$(GO) test -bench 'BenchmarkAdmissionPipeline$$|BenchmarkAdmissionSingleton$$|BenchmarkAdmissionTraced$$' -benchtime 10x -run '^$$' . >> bench_pipeline.txt
	$(GO) test -bench 'BenchmarkAdmissionParallel$$|BenchmarkAdmissionParallelBaseline$$' -benchtime 10x -run '^$$' . >> bench_pipeline.txt
	$(GO) test -bench 'BenchmarkAdmissionTracedOverhead$$' -benchtime 30x -run '^$$' . >> bench_pipeline.txt
	cat bench_pipeline.txt
	awk 'BEGIN { print "{" } \
		/^Benchmark/ { sub(/-[0-9]+$$/, "", $$1); \
			if (n++) printf ",\n"; printf "  \"%s_ns_op\": %s", $$1, $$3; \
			for (i = 5; i < NF; i += 2) { u = $$(i+1); gsub(/\//, "_per_", u); printf ",\n  \"%s_%s\": %s", $$1, u, $$i } } \
		END { print "\n}" }' bench_pipeline.txt > BENCH_pipeline.json
	cat BENCH_pipeline.json

# bench-check is the perf regression guard: it re-runs the guarded hot
# paths — the batch prediction kernel, the sharded fleet dispatch loop,
# the full offline pipeline, and the hot-swap-plus-cache-refill bubble —
# and fails when any is more than BENCH_TOLERANCE percent slower than the
# committed BENCH_pipeline.json baseline. Only those are guarded because
# the parallel Seq variants and trace overheads swing with runner load.
# PredictBatch and HotSwap run 20 iterations (a single shot of a
# millisecond-scale kernel jitters past any sane tolerance); FleetDispatch
# amortizes 2048 placements per iteration so 5 are enough; TrainPipeline
# is seconds long and stable at one; the admission pair amortizes 2048
# arrivals per iteration so 10 are enough. Beyond the ns/op deltas, the
# guard asserts two headline invariants within the fresh run itself (so
# runner speed cancels out): the batched admission pipeline must place at
# >= 2x the singleton arm's placements/sec, and the observability plane's
# cost must stay under 5%. The overhead figure comes from the interleaved
# AdmissionTracedOverhead experiment (median of per-pair ratios), run 3
# times with the MINIMUM taken: run medians still swing a few percent with
# VM steal, and the minimum is the noise-floor estimate — a real
# regression lifts all three runs, a steal burst only some. The multi-lane
# admission plane has its own within-run invariant: BenchmarkAdmissionParallel
# must place at >= 1.5x BenchmarkAdmissionParallelBaseline (the identical
# mixed-game workload at lanes=1) — asserted only when the run's reported
# GOMAXPROCS is >= 4, since lanes sharing one core cannot speed anything
# up; on smaller boxes the ratio prints as info. The baseline
# file is read, never rewritten — run `make bench-json` deliberately to
# move it.
bench-check:
	@test -f BENCH_pipeline.json || { echo "BENCH_pipeline.json baseline missing; run make bench-json and commit it"; exit 1; }
	$(GO) test -bench 'BenchmarkPredictBatch$$|BenchmarkHotSwap$$' -benchtime 20x -run '^$$' . > bench_check.txt
	$(GO) test -bench 'BenchmarkFleetDispatch$$' -benchtime 5x -run '^$$' . >> bench_check.txt
	$(GO) test -bench 'BenchmarkTrainPipeline$$' -benchtime 1x -run '^$$' . >> bench_check.txt
	$(GO) test -bench 'BenchmarkAdmissionPipeline$$|BenchmarkAdmissionSingleton$$|BenchmarkAdmissionTraced$$' -benchtime 10x -run '^$$' . >> bench_check.txt
	$(GO) test -bench 'BenchmarkAdmissionParallel$$|BenchmarkAdmissionParallelBaseline$$' -benchtime 10x -run '^$$' . >> bench_check.txt
	$(GO) test -bench 'BenchmarkAdmissionTracedOverhead$$' -benchtime 30x -count 3 -run '^$$' . >> bench_check.txt
	@cat bench_check.txt
	@awk -v tol=$(BENCH_TOLERANCE) ' \
		FNR == 1 { f++ } \
		f == 1 && /_ns_op/ { \
			key = $$1; gsub(/[":]/, "", key); \
			val = $$2; gsub(/,/, "", val); \
			base[key] = val; \
		} \
		f == 2 && /^Benchmark/ { \
			key = $$1; sub(/-[0-9]+$$/, "", key); \
			cur[key "_ns_op"] = $$3; \
			for (i = 5; i < NF; i += 2) { \
				u = $$(i+1); gsub(/\//, "_per_", u); cur[key "_" u] = $$i; \
				if (key "_" u == "BenchmarkAdmissionTracedOverhead_overhead_pct") { \
					v = $$i + 0; if (!ovseen++ || v < ovmin) ovmin = v; \
				} \
			} \
		} \
		END { \
			n = split("BenchmarkPredictBatch_ns_op BenchmarkHotSwap_ns_op BenchmarkFleetDispatch_ns_op BenchmarkTrainPipeline_ns_op BenchmarkAdmissionPipeline_ns_op BenchmarkAdmissionParallel_ns_op", guard, " "); \
			fail = 0; \
			for (i = 1; i <= n; i++) { \
				k = guard[i]; \
				if (!(k in base) || !(k in cur)) { printf "bench-check: %s missing from baseline or fresh run\n", k; fail = 1; continue; } \
				pct = (cur[k] - base[k]) * 100.0 / base[k]; \
				printf "bench-check: %-36s base=%s fresh=%s delta=%+.1f%%\n", k, base[k], cur[k], pct; \
				if (pct > tol) { printf "bench-check: %s regressed beyond %d%% tolerance\n", k, tol; fail = 1; } \
			} \
			ps = cur["BenchmarkAdmissionPipeline_placements_per_s"] + 0; \
			ss = cur["BenchmarkAdmissionSingleton_placements_per_s"] + 0; \
			if (ps <= 0 || ss <= 0) { print "bench-check: admission placements/s missing from fresh run"; fail = 1; } \
			else { \
				ratio = ps / ss; \
				printf "bench-check: admission coalescing = %.2fx singleton (%.0f vs %.0f placements/s)\n", ratio, ps, ss; \
				if (ratio < 2.0) { print "bench-check: coalesced admission fell below the 2x-over-singleton bar"; fail = 1; } \
			} \
			pp = cur["BenchmarkAdmissionParallel_placements_per_s"] + 0; \
			pb = cur["BenchmarkAdmissionParallelBaseline_placements_per_s"] + 0; \
			mp = cur["BenchmarkAdmissionParallel_maxprocs"] + 0; \
			if (pp <= 0 || pb <= 0) { print "bench-check: parallel admission placements/s missing from fresh run"; fail = 1; } \
			else if (mp >= 4) { \
				pratio = pp / pb; \
				printf "bench-check: multi-lane admission = %.2fx single-collector (%.0f vs %.0f placements/s, %.0f lanes)\n", pratio, pp, pb, cur["BenchmarkAdmissionParallel_lanes"] + 0; \
				if (pratio < 1.5) { print "bench-check: multi-lane admission fell below the 1.5x-over-single-collector bar"; fail = 1; } \
			} \
			else printf "bench-check: multi-lane speedup = %.2fx [info only: GOMAXPROCS=%.0f < 4, lanes contend for one core]\n", pp / pb, mp; \
			ts = cur["BenchmarkAdmissionTraced_placements_per_s"] + 0; \
			if (ts <= 0) { print "bench-check: traced admission placements/s missing from fresh run"; fail = 1; } \
			else if (ps > 0) \
				printf "bench-check: traced admission = %.2fx untraced (%.0f vs %.0f placements/s) [info only]\n", ts / ps, ts, ps; \
			if (!ovseen) { print "bench-check: paired tracing-overhead figure missing from fresh run"; fail = 1; } \
			else { \
				printf "bench-check: tracing overhead (paired, min of %d run medians) = %+.2f%%\n", ovseen, ovmin; \
				if (ovmin >= 5.0) { print "bench-check: tracing cost exceeded the 5% overhead budget"; fail = 1; } \
			} \
			exit fail; \
		}' BENCH_pipeline.json bench_check.txt

# perfbench-check runs the benchmark's own checks: the perfbench module's
# tests, then a 4-second wire-binary run through perfbench/run.sh. It fails
# unless the run's last line, its JSON result, reports "correct": true —
# the gate that checks the fleet's final state against the load
# generator's ledger. The figures themselves are not judged here.
perfbench-check:
	cd perfbench && $(GO) test ./...
	@bash perfbench/run.sh --workload wire-binary --seed 1 --seconds 4 --trace 0 > perfbench_check.txt; \
	status=$$?; cat perfbench_check.txt; \
	tail -n 1 perfbench_check.txt | grep -q '"correct": *true' && [ $$status = 0 ] \
		|| { echo "perfbench-check: the benchmark run failed its correctness gate (exit $$status)"; exit 1; }; \
	echo "perfbench-check: OK"

# lifecycle-e2e runs the self-healing headline proof on its own: a mid-run
# physics perturbation must trip the drift alarm, retrain on post-drift
# evidence, pass the shadow gate, hot-swap, and end the run healthy — all
# without a restart. Part of `make test` too (it only skips under -short);
# this target exists for a fast, verbose signal while working on the
# lifecycle.
lifecycle-e2e:
	$(GO) test -run 'TestLifecycleRecoversFromPerturbedPhysics|TestDriftAlarmPerturbedPhysics' -v ./internal/core/

# serve-smoke proves the admission front end end to end through the real
# binary: build gaugur, boot `serve -demo` on a throwaway port, replay a
# flash-crowd arrival trace over the wire with loadgen (which exits
# non-zero if any request errors and propagates deterministic trace ids),
# pull /debug/flightrecorder and require a non-empty dump with zero
# dropped events that the flightrec reader can render, require /metrics to
# export the collector's straggler-wait counters and per-lane arrival-gap
# gauges, then SIGTERM the server and require a graceful drain. The subshell traps EXIT so the
# server never outlives a failed run; the dump lands in
# flightrecorder.json, which CI archives.
serve-smoke:
	$(GO) build -o bin/gaugur ./cmd/gaugur
	@set -e; \
	./bin/gaugur serve -demo -addr 127.0.0.1:18080 -lanes 2 -queue-cap 1024 -flight-cap 8192 > serve_smoke.log 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:18080/healthz >/dev/null 2>&1; then break; fi; \
		[ "$$i" = 50 ] && { echo "serve-smoke: server never became ready"; cat serve_smoke.log; exit 1; }; \
		sleep 0.2; \
	done; \
	./bin/gaugur loadgen -target http://127.0.0.1:18080 -rps 300 -horizon 4 -time-scale 4 -crowd-at 1 -crowd-duration 1; \
	curl -sf "http://127.0.0.1:18080/debug/flightrecorder?traces=8" -o flightrecorder.json \
		|| { echo "serve-smoke: flight recorder fetch failed"; cat serve_smoke.log; exit 1; }; \
	test -s flightrecorder.json || { echo "serve-smoke: flight recorder dump is empty"; exit 1; }; \
	grep -q '"dropped": 0' flightrecorder.json \
		|| { echo "serve-smoke: flight recorder dropped events under load"; head -5 flightrecorder.json; exit 1; }; \
	grep -q '"kind": "admit"' flightrecorder.json \
		|| { echo "serve-smoke: no admit events in the flight recorder"; exit 1; }; \
	./bin/gaugur flightrec -in flightrecorder.json -expand 1 > /dev/null \
		|| { echo "serve-smoke: flightrec reader choked on the dump"; exit 1; }; \
	curl -sf http://127.0.0.1:18080/metrics -o serve_smoke_metrics.txt \
		|| { echo "serve-smoke: metrics fetch failed"; exit 1; }; \
	for m in gaugur_admission_straggler_waits_total gaugur_admission_straggler_skips_total \
		'gaugur_admission_arrival_gap_seconds{lane="0"}' 'gaugur_admission_arrival_gap_seconds{lane="1"}'; do \
		grep -qF "$$m" serve_smoke_metrics.txt || { echo "serve-smoke: /metrics lacks $$m"; exit 1; }; \
	done; \
	kill -TERM $$pid; \
	wait $$pid || { echo "serve-smoke: server exited non-zero"; cat serve_smoke.log; exit 1; }; \
	trap - EXIT; \
	grep -q "drained clean" serve_smoke.log || { echo "serve-smoke: no clean drain"; cat serve_smoke.log; exit 1; }; \
	echo "serve-smoke: OK"; tail -2 serve_smoke.log

# fmt rewrites every tracked Go file in place; fmt-check is the CI gate
# that fails (and lists offenders) when anything is unformatted.
fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# cover runs the suite with a statement-coverage profile and enforces the
# COVER_MIN floor on the total.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total="$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; }

# lint runs staticcheck when it is on PATH and explains how to get the
# pinned version otherwise. It is not part of `make verify` because the
# tool is an external binary; CI runs it as its own cached job.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; run:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
		exit 1; \
	fi

# vulncheck scans the module against the Go vulnerability database with
# the pinned govulncheck. Like lint, it needs an external binary (and
# network access to fetch the DB), so it is CI's own cached job rather
# than part of `make verify`.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; run:"; \
		echo "  go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)"; \
		exit 1; \
	fi

# tidy-check fails when go.mod/go.sum would change under `go mod tidy` —
# the committed module graph must already be tidy.
tidy-check:
	$(GO) mod tidy -diff

# verify is the full gate: tier-1 build+test, formatting, static analysis,
# and the race detector over every package.
verify: build test fmt-check vet race
