# Convenience targets; everything below is plain dune.

.PHONY: all build test smoke batch-smoke bench-farm regir-smoke explore-smoke \
	trace-smoke perfbench-smoke bench lint clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate: build and the full test suite. Performance is measured by
# perfbench (BENCHMARK.json; `make perfbench-smoke` runs its oracle).
smoke:
	dune build && dune runtest

# Replay farm gate: record the whole registry across 4 shard domains and
# fail unless every job completes (the aggregate digest is checked against
# a sequential run by test_server and bench E12).
batch-smoke:
	dune exec bin/dvrun.exe -- batch --shards 4 --out _batch

# Warm-reuse gate: record the registry twice over on warm shard pools at
# 1 and 2 shards and fail unless the aggregate digests are identical —
# recycling VMs must change scheduling, never results.
bench-farm:
	dune exec bench/main.exe -- farm-smoke

# Register-tier gate: record every registry workload with the register-IR
# compile tier on and off and fail unless trace bytes, state digests,
# event digests, and observer counts are identical — the tier is a pure
# perf optimisation and must be invisible to replay. The register tier
# folds the event digest once per region segment and the stack tier once
# per instruction, so this also gates region-fold parity. Each workload's
# trace is also replayed twice — by default, with the virtual clock off,
# and with the clock forced back on — and the gate fails unless the
# default replay drew no clock ticks (env.ticks = 0) and both replays give
# the same status, output, digests, counts and leftovers.
regir-smoke:
	dune exec bench/main.exe -- regir-smoke

# Exploration gate: the bounded DPOR search must find both seeded bugs —
# the atomicity violation (check-then-act overdraft) and the lock-cycle
# deadlock — and every emitted failure trace must replay through the
# stock replayer to the identical status/output/state digest (exit 1
# otherwise — --expect-failure inverts the usual success criterion).
explore-smoke:
	rm -rf _explore && dune exec bin/dvrun.exe -- explore atomicity \
	  --out _explore --expect-failure
	dune exec bin/dvrun.exe -- explore lock-cycle --out _explore \
	  --expect-failure

# Malformed-trace gate: record fig1ab, then make a half-length copy of the
# trace and a copy with bytes appended. For each copy, `trace-dump` and
# `replay` must both exit 2 and print the same `malformed trace` message:
# both run the one trace decoder (Trace.Reader).
TRACE_SMOKE = _trace_smoke
DVRUN = _build/default/bin/dvrun.exe

trace-smoke:
	@dune build bin/dvrun.exe && rm -rf $(TRACE_SMOKE) && mkdir $(TRACE_SMOKE) && \
	$(DVRUN) record fig1ab --seed 1 -o $(TRACE_SMOKE)/t.trace > /dev/null && \
	n=$$(wc -c < $(TRACE_SMOKE)/t.trace) && \
	head -c $$((n / 2)) $(TRACE_SMOKE)/t.trace > $(TRACE_SMOKE)/half.trace && \
	cp $(TRACE_SMOKE)/t.trace $(TRACE_SMOKE)/long.trace && \
	printf 'appended' >> $(TRACE_SMOKE)/long.trace && \
	for c in half long; do \
	  f=$(TRACE_SMOKE)/$$c.trace; \
	  $(DVRUN) trace-dump $$f > /dev/null 2> $$f.dump.err; d=$$?; \
	  $(DVRUN) replay fig1ab -i $$f > /dev/null 2> $$f.replay.err; r=$$?; \
	  echo "trace-smoke $$c: trace-dump exit $$d: $$(cat $$f.dump.err)"; \
	  echo "trace-smoke $$c: replay exit $$r: $$(cat $$f.replay.err)"; \
	  [ $$d -eq 2 ] && [ $$r -eq 2 ] && grep -q 'malformed trace' $$f.dump.err && \
	    cmp -s $$f.dump.err $$f.replay.err || exit 1; \
	done

# Benchmark oracle gate: run each BENCHMARK.json workload for a short
# timed pass and fail unless its JSON result (the last line run.py prints)
# reports every op correct and none failed. A run that errors prints no
# result, which fails the check too.
PERFBENCH_WORKLOADS = rr-compute rr-sync cli

perfbench-smoke:
	@for w in $(PERFBENCH_WORKLOADS); do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace 0 \
	    | tail -n 1 | python3 -c 'import json, sys; \
	r = json.loads(sys.stdin.read() or "{}"); \
	ok = r.get("correct") is True and r.get("failed") == 0; \
	print("perfbench-smoke %s: correct=%s failed=%s attempted=%s" % (sys.argv[1], \
	  r.get("correct"), r.get("failed"), r.get("attempted"))); \
	sys.exit(0 if ok else 1)' $$w || exit 1; \
	done

bench:
	dune exec bench/main.exe

# Static race audit over the whole workload registry, gated by the curated
# allow-list (exit 1 on any racy finding not in LINT_baseline.json).
lint:
	dune exec bin/dvrun.exe -- lint --all --baseline LINT_baseline.json

clean:
	dune clean
