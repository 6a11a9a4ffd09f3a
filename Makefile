# Convenience targets; everything is plain dune underneath.

.PHONY: all build test test-parallel test-parallel8 explain-golden cost-golden alloc-golden serve-golden trace-check chaos-smoke mem-smoke udf-smoke pool-smoke serve-smoke overload-smoke crash-smoke check bench bench-scaleup bench-faults bench-memory bench-udf bench-serve bench-overload bench-recovery clean

all: build

build:
	dune build

# Tier-1 suite. helpers.ml reads EMMA_TEST_DOMAINS (default 2), so this
# already exercises the multicore execution path.
test:
	dune runtest

# Same suite pinned to 4 domains — the configuration the determinism and
# fault-recovery tests are written against.
test-parallel:
	EMMA_TEST_DOMAINS=4 dune runtest --force

# And pinned to 8 domains: oversubscribed on most hosts, which is exactly
# the preemption-heavy schedule the domain pool must stay
# deterministic under.
test-parallel8:
	EMMA_TEST_DOMAINS=8 dune runtest --force

# Golden-file checks for `emma explain` (part of the default `dune runtest`;
# this target runs just that suite). Regenerate intentionally-changed goldens
# with EMMA_UPDATE_GOLDEN=1 dune runtest --force.
explain-golden:
	dune exec test/test_main.exe -- test explain_golden

# Golden-file checks pinning the cost model's absolute output (sim time,
# every byte channel, stages/jobs/recomputes) for every registry program
# on both engine profiles, and for each join kind (inner, semi, anti)
# under Jit, forced broadcast, forced repartition and a co-partitioned
# left input; part of the default `dune runtest`, regenerated the same way
# as the explain goldens.
cost-golden:
	dune exec test/test_main.exe -- test cost_golden

# Golden-file checks pinning the host allocation (minor words and words
# allocated directly in the major heap) of a warm one-domain run of every
# registry program; part of the default `dune runtest`, exact in the dev
# profile it uses, regenerated the same way as the explain goldens.
alloc-golden:
	dune exec test/test_main.exe -- test alloc_golden

# Golden-file checks pinning the serve scheduler's decisions: the replay
# fingerprint, every journal record and every retained snapshot payload
# of six fixed runs (policy off, deadline + ladder, queue bound, breaker
# cycle, drain, snapshot recovery after a crash); part of the default
# `dune runtest`, regenerated the same way as the explain goldens.
serve-golden:
	dune exec test/test_main.exe -- test serve_golden

# Tracer well-formedness and cost-model-invariance properties (also part of
# the default `dune runtest`).
trace-check:
	dune exec test/test_main.exe -- test trace

# One seeded chaos scenario (fault injection + loop checkpointing) per
# example program; the engine must recover transparently or the alias fails.
chaos-smoke:
	dune build @chaos-smoke --force

# TPC-H Q1 and k-means under a tiny per-slot memory budget with spilling
# on: spill counters must move and results must stay bit-identical.
mem-smoke:
	dune build @mem-smoke --force

# Every registry program in both UDF modes (interpreted oracle vs staged-compiled):
# results and cost-model metrics must be bit-identical.
udf-smoke:
	dune build @udf-smoke --force

# Short scheduling stress of the domain pool at 8 oversubscribed
# domains: nested trees, tiny-batch churn, exception storm, differential
# against a sequential map.
pool-smoke:
	dune build @pool-smoke --force

# Multi-tenant service gate: deterministic replay fingerprint, plan-cache
# hits that never change a result, cache counters in every query's metrics.
serve-smoke:
	dune build @serve-smoke --force

# Robustness gate: Zipf burst under tight deadlines (nonzero sheds, no
# silent loss, fingerprint stable at 2 and 8 domains) plus a scripted
# circuit-breaker open/half-open/close cycle.
overload-smoke:
	dune build @overload-smoke --force

# Durability gate: SIGKILL journaled serve runs at scripted append
# indices (incl. a torn write, a snapshot-based recovery and a double
# crash), recover each, and require the replay fingerprint and journal
# bytes to match an uninterrupted run exactly.
crash-smoke:
	dune build @crash-smoke --force

# The full pre-merge flow: build, tier-1 tests on 2, 4 and 8 domains,
# chaos smoke, memory smoke, UDF-mode differential smoke, pool stress,
# service-layer smoke, crash-recovery smoke.
check: build test test-parallel test-parallel8 chaos-smoke mem-smoke udf-smoke pool-smoke serve-smoke overload-smoke crash-smoke

bench:
	dune exec bench/main.exe

# Multicore wall-clock scale-up experiment (1/2/4/8 domains).
bench-scaleup:
	dune build @bench-scaleup --force

# Chaos & recovery-overhead experiment (fault-rate and checkpoint sweeps).
bench-faults:
	dune build @bench-faults --force

# Memory-governance experiment (budget, spill, OOM and eviction sweeps).
bench-memory:
	dune exec bench/main.exe -- memory

# Staged-UDF-compilation wall-clock experiment (writes BENCH_udf_compile.json).
bench-udf:
	dune exec bench/main.exe -- udf

# Multi-tenant service experiment: plan cache on vs off under a Zipf
# arrival trace (writes BENCH_serve.json).
bench-serve:
	dune exec bench/main.exe -- serve

# Overload-control experiment: burst trace under deadline-aware shedding +
# degradation vs the policy-off serve (writes BENCH_overload.json).
bench-overload:
	dune exec bench/main.exe -- overload

# Crash-recovery experiment: exhaustive crash-point injection sweep over
# a journaled serve trace + recovery time with/without snapshots (writes
# BENCH_recovery.json).
bench-recovery:
	dune exec bench/main.exe -- recovery

clean:
	dune clean
