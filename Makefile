.PHONY: all build test bench bench-prefer bench-micro bench-smoke \
	bench-serve bench-persist bench-replica bench-cluster \
	bench-concurrent bench-incremental crash-test chaos stress \
	serve-smoke servebench-check examples doc \
	clean fuzz

# Single source of truth for the randomized suites: the FUZZ_ITERS-scaled
# fuzzers as suite=iterations pairs (fuzz and chaos share the sweep
# loop), and the fault-injection suites crash-test runs in order.
FUZZ_SUITES = fuzz=5000 diff-stable=2000 diff-prefer=5000 diff-inc=1500 \
	proto=20000 \
	persist=20000 replica=2000
CHAOS_FUZZ_SUITES = replica=2000 proto=20000 persist=20000
CRASH_SUITES = crash replica linearize

all: build

build:
	dune build

test:
	dune runtest

# Enumeration benchmark (pruned search vs naive oracle): writes
# BENCH_PR2.json with median wall times, search counters and the
# naive/pruned node ratios, then fails if the scaled workload's node
# ratio regresses below the floor (PR 2 baseline: 364.8) or its pruned
# median overshoots the absolute wall-clock ceiling (baseline: 4 ms —
# the ceiling also catches a regression that slows both engines
# equally).  Then the compiled-kernel benchmark (flat-array kernel vs
# the pruned search, same model lists): writes BENCH_PR9.json and
# fails if the scaled workload's pruned/compiled wall ratio falls
# below the floor (PR 9 baseline: 2.0; floor at half) or the compiled
# median overshoots the ceiling.  See docs/PERFORMANCE.md.
bench:
	dune exec bench/enum.exe -- --min-ratio 300 --max-wall-ms 250
	dune exec bench/solve_bench.exe -- --min-wall-ratio 1.0 --max-wall-ms 250

# Preference benchmark (compiled preferences vs the naive
# refined-grounding oracle, scaled prioritized-defaults workloads),
# run once with the pruned search on the compiled program and once
# with the flat-array kernel (--search compiled): writes
# BENCH_PR8.json, then fails if the scaled workload's
# compiled-vs-naive node ratio regresses below the floor (PR 8
# baseline: 145.8; the kernel only raises the ratio).  See
# docs/PERFORMANCE.md.
bench-prefer:
	dune exec bench/prefer.exe -- --min-ratio 140
	dune exec bench/prefer.exe -- --search compiled --min-ratio 140 \
	  --out BENCH_PR8_compiled.json

# Serving benchmark (socket server, repeated-query workload): writes
# BENCH_PR3.json with requests/sec and session-cache hit rate at one
# worker and at four.  See docs/SERVER.md.
bench-serve:
	dune exec bench/serve.exe

# Persistence benchmark (WAL write-path overhead vs in-memory, with and
# without fsync, and recovery replay speed): writes BENCH_PR4.json.
# See docs/PERSISTENCE.md.
bench-persist:
	dune exec bench/persist.exe

# Replication benchmark (log-shipping throughput, replica read QPS vs
# primary, catch-up after a burst): writes BENCH_PR5.json.  See
# docs/REPLICATION.md.
bench-replica:
	dune exec bench/replica.exe

# Cluster benchmark (sync vs async commit latency/throughput,
# aggregate read QPS over a 1-primary/2-replica chain, failover time
# to the first successful write): writes BENCH_PR6.json.  See
# docs/REPLICATION.md.
bench-cluster:
	dune exec bench/cluster.exe

# Incremental-maintenance benchmark (delta eviction vs flush-on-write
# under a mixed read/write workload, primary and replica): writes
# BENCH_PR10.json and fails unless the delta runs hold a 0.90 cache
# hit rate under sustained writes and beat the wholesale baseline.
# See docs/INCREMENTAL.md.
bench-incremental:
	dune exec bench/incremental.exe -- --min-hit-rate 0.9

# Concurrent-serving benchmark (lock-free snapshot reads under writer
# pressure: read QPS at 1 worker vs 4 with writers parked in the
# group-commit window, plus a 64-client batched crowd that must finish
# with zero errors): writes BENCH_PR7.json.  See docs/SERVER.md.
bench-concurrent:
	dune exec bench/concurrent.exe

# The concurrency harness, with backtraces and a time box: the
# parallel property suite (snapshot immutability, shard-lock overlap,
# lock-free reads) and the randomized linearizability oracle, run
# repeatedly to shake out schedules.
stress:
	@for i in 1 2 3 4 5; do \
	  OCAMLRUNPARAM=b timeout 60 dune exec test/main.exe -- test parallel -e \
	    | tail -1; \
	  OCAMLRUNPARAM=b timeout 60 dune exec test/main.exe -- test linearize -e \
	    | tail -1; done

# Crash recovery under exhaustive fault injection: tear the WAL at
# every write boundary of a mutation script and check that recovery
# rebuilds exactly the acknowledged prefix — locally, and on a replica
# killed at every append boundary mid-catch-up; the replica suite also
# sweeps epoch fencing at every protocol boundary (a revived stale
# primary is refused everywhere).
crash-test:
	@for s in $(CRASH_SUITES); do \
	  dune exec test/main.exe -- test $$s -e; done

# The aggregate fault sweep: crash/kill recovery, the fencing and
# failover suites at a larger differential-schedule count, and the
# wire-protocol/WAL-record fuzzers — the one target to run before
# trusting a failover story.
chaos: crash-test
	@for sc in $(CHAOS_FUZZ_SUITES); do \
	  FUZZ_ITERS=$${sc#*=} dune exec test/main.exe -- test $${sc%%=*} -e \
	    | tail -1; done
	dune build @replica @cluster

# Microbenchmarks of the core engines (bechamel).
bench-micro:
	dune exec bench/main.exe

# Run every bench workload under a 2s wall-clock budget and emit JSON;
# fails if any workload overshoots its deadline instead of surrendering.
bench-smoke:
	dune exec bench/smoke.exe

# Boot the query server, make one round-trip, drain — all under a hard
# 5-second deadline (build first so the clock only times the server).
serve-smoke:
	dune build bench/serve.exe
	timeout 5 ./_build/default/bench/serve.exe --smoke

# The serving benchmark's determinism and correctness gate: every
# workload twice per mode with one seed; both runs must print identical
# deterministic counter blocks and pass the correctness checks.  See
# servebench/README.md.
servebench-check:
	python3 servebench/run.py --self-test

examples:
	@for e in quickstart penguin loan colors kb_versioning legal deductive_db paper_tour preferences; do \
	  echo "== examples/$$e =="; dune exec examples/$$e.exe; done

doc:  # requires odoc
	dune build @doc

# Re-run the whole suite under several qcheck seeds, then hammer the
# parser, preference-differential, wire-protocol, WAL-record and
# replication fuzz suites with a larger input count ($(FUZZ_SUITES)).
fuzz:
	@for i in 1 2 3 4 5 6 7 8; do \
	  QCHECK_SEED=$$((i * 7919)) dune exec test/main.exe -- -e \
	    | tail -1; done
	@for sc in $(FUZZ_SUITES); do \
	  FUZZ_ITERS=$${sc#*=} dune exec test/main.exe -- test $${sc%%=*} -e \
	    | tail -1; done

clean:
	dune clean
