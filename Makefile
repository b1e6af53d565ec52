.PHONY: all check build test bench bench-smoke bench-wcoj bench-ghd bench-enum bench-adaptive serve-soak fmt clean

all: check

build:
	dune build @all

test:
	dune runtest

check: build test

bench:
	dune exec bench/main.exe

# A seconds-long subset for CI: one figure, tiny scale, one seed,
# machine-readable results in BENCH_results.json.
bench-smoke:
	dune exec bench/main.exe -- --figure 3 --scale 0.2 --seeds 1 --json BENCH_results.json

# Generic-join gate: an identity sweep (densities x seeds x encoding
# modes) where the worst-case-optimal join, the AGM-gated driver path,
# and bucket elimination must produce identical tuple sets — enforced
# always — plus a dense 3-COLOR panel where the gate picks the generic
# join, its measured max intermediate arity must not exceed bucket
# elimination's, and it must be >= 1.2x faster (PPR_WCOJ_GATE_MIN
# overrides the threshold, 0 disables). The verdict lands in
# BENCH_results.json under "wcoj_comparison".
bench-wcoj:
	dune exec bench/wcoj_bench.exe -- --json BENCH_results.json

# Decomposition gate: an identity sweep (random densities x seeds x
# encoding modes plus the structured families) where the forced GHD
# evaluator, the three-bound gated path, and bucket elimination must
# produce identical tuple sets — enforced always — plus the 6x6-grid
# cyclic low-htw panel where the gate must pick the decomposition and
# it must be >= 1.1x faster than the bucket plan (PPR_GHD_GATE_MIN
# overrides the threshold, 0 disables), Figure 3's dense panel (order
# 16, densities 6 and 7) where the forced decomposition must match
# bucket elimination with no intermediate above 4,096 rows — enforced
# always — and a jobs=4 vs jobs=1
# adaptive-sweep wall-time check — a hard gate on >= 4-core runners,
# warn-only below (PPR_GHD_PAR_GATE_MAX overrides the 1.05x tolerance,
# 0 disables). The verdict lands in BENCH_results.json under
# "ghd_comparison".
bench-ghd:
	dune exec bench/ghd_bench.exe -- --json BENCH_results.json

# Enumeration gate: time-to-first-answer through Exec.stream against
# the materialize-everything path on a large-output acyclic panel (the
# path P_16 3-coloring with every variable free, ~100k answers). The
# drained stream must be tuple-identical to the materialized answer on
# both the bucket plan and the GHD route — enforced always — and the
# first streamed tuple must arrive >= 5x faster than the full
# materialization (PPR_ENUM_GATE_MIN overrides the threshold, 0
# disables). The verdict lands in BENCH_results.json under
# "enumeration_comparison".
bench-enum:
	dune exec bench/enum_bench.exe -- --json BENCH_results.json

# Adaptive-planning gate: a skewed workload (one join overestimated
# ~25x, another underestimated ~75x by the independence model) run
# twice through the feedback loop. Both passes must produce identical
# answers — enforced always — and the second, feedback-corrected pass
# must pick a plan whose measured intermediate work undercuts the
# textbook plan's by >= 1.2x without being slower in wall time
# (PPR_ADAPT_GATE_MIN overrides the threshold, 0 disables). The
# verdict lands in BENCH_results.json under "adaptive_comparison".
bench-adaptive:
	dune exec bench/adaptive_bench.exe -- --json BENCH_results.json

# Serving soak gate: an in-process daemon on a real socket under ~200
# concurrent requests of mixed health (valid isomorphic templates,
# malformed lines, over-budget sessions, chaos stalls racing deadlines).
# Every request must get exactly one typed response, the daemon must
# count zero internal errors and survive the flood, the plan cache must
# register hits, and shutdown must drain in-flight sessions. The verdict
# lands in BENCH_results.json under "serve_soak".
serve-soak:
	dune exec bench/serve_soak.exe -- --json BENCH_results.json

# Requires ocamlformat; no-op-safe when it is not installed.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt --auto-promote; \
	else \
		echo "ocamlformat not installed; skipping"; \
	fi

clean:
	dune clean
