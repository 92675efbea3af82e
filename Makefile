# Convenience targets; tier-1 verification is `dune build && dune runtest`.

.PHONY: all build test bench lint analyze diff \
	diff-bench serve serve-bench whatif whatif-bench inc inc-bench \
	check telemetry-bench semantic-bench chaos perfbench-selftest smoke \
	clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Static analysis: build with the strict warning set, then run the
# `hoyan lint` pass over a generated WAN corpus (exits non-zero on any
# error-severity diagnostic; the corpus must come out clean).
lint:
	dune build @all
	dune exec bin/hoyan_cli.exe -- lint --deep --scale small
	dune exec bin/hoyan_cli.exe -- lint --deep --scale wan

# Cross-device semantic pass on its own: control-plane graph + the
# HOY020-HOY028 checks over the generated corpora (exit-code contract:
# 0 clean, 1 over the warning budget, 2 on any error).
analyze:
	dune build @all
	dune exec bin/hoyan_cli.exe -- analyze --scale small
	dune exec bin/hoyan_cli.exe -- analyze --scale wan

# Differential change-impact gate: `hoyan diff` over a sample
# propagating plan against the generated corpus (exit-code contract as
# lint/analyze), then the soundness cross-check from the test suite —
# every (device, prefix) verdict the simulator changes must fall inside
# the statically computed dirty region (DESIGN.md §2.7).
diff:
	dune build @all
	printf 'router bgp 64512\n network 198.51.100.0/24\n' > /tmp/hoyan_diff_plan.txt
	dune exec bin/hoyan_cli.exe -- diff /tmp/hoyan_diff_plan.txt --device r00-bdr01
	dune exec test/test_main.exe -- test differential

# Differential pass cost vs a full patched-model simulation on the WAN
# workload; writes BENCH_PR7.json (DESIGN.md §2.7).
diff-bench:
	dune exec bench/main.exe -- --diff-bench

# Serve smoke: the example request stream through the verification
# server with --selfcheck, which re-runs every executed request
# directly through Verify_request.run and asserts the served verdict
# is byte-identical (exit 1 on any mismatch or execution error), plus
# the server test suite (DESIGN.md §2.8).
serve:
	dune build @all
	dune exec bin/hoyan_cli.exe -- serve \
	  --requests examples/serve_requests.txt --selfcheck --no-timing
	dune exec test/test_main.exe -- test server

# k-failure soundness gate: `hoyan whatif --selfcheck` runs the pruned
# sweep AND the brute-force sweep in-process and asserts identical
# violating scenario sets (exit 2 on mismatch), then the kfailure test
# suite replays the same oracle over hand-built and qcheck-generated
# topologies for k in {1,2} (DESIGN.md §2.9).
whatif:
	dune build @all
	dune exec bin/hoyan_cli.exe -- whatif --scale small -k 1 --selfcheck; \
	  test $$? -le 1
	dune exec bin/hoyan_cli.exe -- whatif --scale small -k 2 --devices \
	  --selfcheck; test $$? -le 1
	dune exec test/test_main.exe -- test kfailure

# Pruning ratio + wall clock of the exhaustive sweep vs brute force
# (brute measured at small scale, extrapolated at wan scale); writes
# BENCH_PR9.json (DESIGN.md §2.9).
whatif-bench:
	dune exec bench/main.exe -- --whatif-bench

# Incremental-splice soundness gate: `hoyan verify --inc --selfcheck`
# runs the dirty-region splice AND a full from-scratch patched run
# in-process and asserts the RIB + traffic results are identical (exit
# 1 on mismatch), then the incremental test suite replays the oracle
# over a qcheck plan family including withdraw-only/no-op plans and a
# deliberately pruned (unsound) dirty set (DESIGN.md §2.10).
inc:
	dune build @all
	dune exec bin/hoyan_cli.exe -- verify --inc --selfcheck
	dune exec test/test_main.exe -- test incremental

# 300-plan mixed batch against one captured converged base: spliced
# incremental runs vs full re-simulation (measured subsample + honest
# extrapolation, full-fallback counters); writes BENCH_PR10.json.
inc-bench:
	dune exec bench/main.exe -- --inc-bench

# Open-loop load at the server: >=1200 mixed requests over 8 tenants,
# byte-identity contract check against direct runs, per-class p50/p99,
# cache hit rate, admission rejections; writes BENCH_PR8.json.
serve-bench:
	dune exec bench/main.exe -- --serve-bench

# Everything a PR must keep green: strict-warning build of every
# target (libs, bins, bench, tests), the full test suite, then the
# static-analysis gate over the generated corpora.
check:
	dune build @all
	dune runtest
	$(MAKE) lint
	$(MAKE) analyze

# Telemetry cost section: noop-guard microbench + live-handle overhead
# on the full WAN simulation; writes BENCH_PR3.json (DESIGN.md §2.3).
telemetry-bench:
	dune exec bench/main.exe -- --telemetry

# Semantic gate cost: the cross-device pass + static intent pre-checker
# vs the full WAN simulation; writes BENCH_PR4.json (DESIGN.md §2.4).
semantic-bench:
	dune exec bench/main.exe -- --semantic

# Fault-tolerance gate: the dist test suite (fault matrix, named-victim
# regressions, chaos determinism) plus a quick chaos bench asserting the
# monitor-loop overhead and the recovery contract (completed phases are
# identical to the failure-free run); writes BENCH_PR5.json at --quick
# scale (DESIGN.md §2.5).
chaos:
	dune exec test/test_main.exe -- test dist
	dune exec bench/main.exe -- --chaos --quick --out /tmp/BENCH_PR5_quick.json

# Benchmark self-test: the perfbench harness's own checks (verdict
# oracle, metric plumbing) on tiny inputs, so a library change that
# breaks the benchmark fails here rather than in a benchmark run.
perfbench-selftest:
	bash perfbench/run.sh --selftest

# Tier-1 smoke: build and tests.
smoke:
	dune build
	dune runtest

clean:
	dune clean
