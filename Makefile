# Convenience targets; everything works without make too (see README).

# Every target runs against the checkout, installed or not: src/ goes ahead of
# any inherited PYTHONPATH.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-fast test-chaos test-procexec test-recovery test-tcp test-engine test-service test-service-recovery test-spatial fsck-smoke bench bench-smoke bench-compare repro docs docs-check clean

install:
	pip install -e .

test:
	pytest tests/

test-fast:
	pytest tests/ -m "not slow"

# Fault-injection runs: crash/hang/drop chaos against the fault-tolerant
# parallel runner (minutes, not seconds — heartbeat timeouts are real time).
test-chaos:
	pytest tests/ -m chaos

# Process-backend SPMD suite: every rank forks a real OS process, so the
# tests keep world sizes small (<= 4 ranks) to stay fast on shared runners.
# (Same launcher and socket wire as test-tcp, with a host per rank:
# mpi/hostexec.py and mpi/tcp.py; the marker selects tests.)
test-procexec:
	pytest tests/ -m procexec

# Self-healing runs: worker respawn under real process kills, supervised
# restarts from torn checkpoints, and SIGKILL-mid-checkpoint recovery; then
# the checkpoint format's own suite (serial, star and a world of one resume
# each other).
test-recovery:
	pytest tests/ -m recovery
	pytest tests/io/test_checkpoints.py tests/parallel/test_resume.py tests/parallel/test_world_of_one.py

# Multi-host TCP transport: framing/channel unit tests plus loopback
# multi-host chaos runs (partitions, connection resets, a respawned crash).
test-tcp:
	pytest tests/ -m tcp

# Engine parity: batch vs vector vs scalar/lookup reference engines must
# produce bit-identical fitness (memory 1-6, with and without noise).
test-engine:
	pytest tests/ -m engine

# The run service: specs, store, queue (quotas/fair-share/requeue),
# REST/SSE server + CLI, the two-tenant chaos acceptance test, the
# tick-independence suite (tests/service/test_event_driven.py: every queue
# and live stream at a 30 s poll, so only events can finish a job) and the
# worker's names-only tap (tests/obs/test_tap_names.py).
test-service:
	pytest tests/ -m service

# Crash-safety slice of the service suite: lease fencing, journal replay,
# startup recovery, drain, stall watchdog, store fault injection + fsck,
# and the SIGKILLed-service chaos acceptance test.
test-service-recovery:
	pytest tests/service/test_journal.py tests/service/test_recovery.py tests/service/test_store_fsck.py

# Smoke-check the store fsck tool against a scratch store (clean store,
# exit 0) — proves the console entry point and classifier wire up.
fsck-smoke:
	python -m repro.service.fsck fsck --root $(or $(FSCK_ROOT),/tmp/repro-fsck-smoke)

# Structured populations: interaction graphs, grid/graph game parity,
# spec dispatch, and the rank-partitioned runs (incl. multi-rank parity).
test-spatial:
	pytest tests/ -m spatial

bench:
	pytest benchmarks/ --benchmark-only

# The end-to-end benchmark's own smoke test (bench/ sits outside tier-1's
# testpaths): every probe and workload once, against the current API.
bench-smoke:
	python3 -m pytest bench/ -q

# B judged against A by BENCHMARK.json's bounds (exit 1 on a worse row or a
# larger fail_ratio); A and B are result files of `python3 -m bench --seed N`:
#   make bench-compare A=bench/out/result-seed7.json B=bench/out/result-seed8.json
bench-compare:
	python3 -m bench compare $(A) $(B)

# Regenerate every paper artefact into reproduction/ (fast set; add
# INCLUDE_SLOW=1 for the multi-minute science studies).
repro:
	repro-experiment all --output-dir reproduction $(if $(INCLUDE_SLOW),--include-slow,)

docs:
	python tools/gen_api_index.py
	python tools/gen_knob_list.py

# Fail if docs/api.md is stale or any public module is missing from it, or
# if docs/knobs.md no longer lists every settable value, then execute every
# Python snippet in the prose docs.
docs-check:
	python tools/gen_api_index.py --check
	python tools/gen_knob_list.py --check
	python tools/check_doc_snippets.py README.md docs/tutorial.md \
		docs/architecture.md docs/observability.md docs/kernels.md \
		docs/service.md docs/spatial.md

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache benchmarks/output reproduction
	find . -name __pycache__ -type d -exec rm -rf {} +
