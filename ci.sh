#!/usr/bin/env bash
# CI entry point.
#
#   ./ci.sh              # all stages
#   ./ci.sh build-test   # tier-1 verify: Debug + Release, -Werror, ctest
#   ./ci.sh lint         # qtx-lint static analysis: the repo's own src/
#                        # tree must be violation-free (layer DAG,
#                        # determinism, hygiene — see CONTRIBUTING.md
#                        # "Invariants"), plus the lint fixture suite.
#                        # Writes build-ci-lint/lint-report.txt.
#   ./ci.sh tsan         # QTX_SANITIZE=thread build running the "api",
#                        # "parallel", "accel", "comm", "serve", and "obs"
#                        # ctest labels (the energy pipeline's threading,
#                        # the mixers' parallel energy loops, socket
#                        # framing with thread ranks, the serve daemon's
#                        # acceptor/worker threads, and the obs buffers)
#   ./ci.sh asan-ubsan   # QTX_SANITIZE=address,undefined build running the
#                        # FULL ctest suite; UBSan findings are fatal
#                        # (-fno-sanitize-recover), so any signed overflow,
#                        # invalid read, or leak fails the stage
#   ./ci.sh blas         # Release build with QTX_WITH_BLAS=ON running the
#                        # "la-backend" ctest label (kernel equivalence of
#                        # every registered la backend + the table4 bench
#                        # gate). Degrades gracefully: without CBLAS/LAPACKE
#                        # the "blas" backend simply isn't registered and
#                        # the label covers reference + native only.
#   ./ci.sh ranks        # Release build running the "comm" ctest label
#                        # (collective contract of every registered comm
#                        # backend + the forked-process launcher's fault
#                        # handling), the golden.ranked_quickstart
#                        # cross-process determinism gate, and the Fig. 6
#                        # weak-scaling bench (emits
#                        # BENCH_fig6_weak_scaling.json). Ranks are
#                        # processes, not threads — runs on a single-core
#                        # container.
#   ./ci.sh serve        # Release build running the "serve|golden" ctest
#                        # labels (serve daemon unit + end-to-end suites,
#                        # the golden.served_quickstart determinism gate)
#                        # and the serve-throughput bench (emits
#                        # BENCH_serve_throughput.json, gated against
#                        # bench/references.json by bench/check_bench.py)
#   ./ci.sh bench-harness
#                        # builds the qtxbench harness against this tree's
#                        # src/ and runs `python3 qtxbench/run.py
#                        # --self-check` (every workload once at tiny
#                        # sizes, traced and untraced), so a src/ change
#                        # that breaks the benchmark fails here first
#   ./ci.sh obs          # Release build running the "obs" ctest label
#                        # (span nesting/determinism, trace + metrics
#                        # rendering, serve stats round trip), then an
#                        # end-to-end traced quickstart: qtx run --trace
#                        # --metrics, python3 validates the Chrome trace
#                        # JSON (>= 1 span per SCBA iteration per stage
#                        # kind) and the metrics snapshot, and a live
#                        # daemon is scraped via qtx submit --stats
#   ./ci.sh tidy         # clang-tidy over the src/ tree with the curated
#                        # .clang-tidy check set (skipped with a notice when
#                        # clang-tidy is not installed)
#   ./ci.sh docs         # doxygen (skipped if unavailable); fails on
#                        # undocumented-public-symbol warnings in the
#                        # tracked core/io/analysis headers
#
# Exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"
STAGE="${1:-all}"

build_test() {
  for config in Debug Release; do
    build_dir="build-ci-${config,,}"
    echo "=== [$config] configure ==="
    cmake -B "$build_dir" -S . \
      -DCMAKE_BUILD_TYPE="$config" \
      -DQTX_WERROR=ON
    echo "=== [$config] build ==="
    cmake --build "$build_dir" -j "$JOBS"
    echo "=== [$config] header self-sufficiency check ==="
    cmake --build "$build_dir" --target qtx_header_check -j "$JOBS"
    echo "=== [$config] ctest (includes the -L api facade suite) ==="
    ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"
  done
  if command -v python3 > /dev/null 2>&1; then
    echo "=== [build-test] gate every BENCH_*.json against" \
         "bench/references.json ==="
    # The Release ctest pass above ran the bench label, so the Release
    # tree holds a fresh BENCH_*.json per bench binary; each run is also
    # appended to the bench/trajectory.jsonl perf log (ROADMAP item 5).
    python3 bench/check_bench.py build-ci-release/BENCH_*.json \
      --trajectory bench/trajectory.jsonl
  else
    echo "=== [build-test] python3 not found — skipping the bench gate ==="
  fi
}

lint() {
  build_dir="build-ci-lint"
  echo "=== [lint] configure ==="
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DQTX_WERROR=ON \
    -DQTX_BUILD_BENCHES=OFF \
    -DQTX_BUILD_EXAMPLES=OFF
  echo "=== [lint] build qtx-lint + fixture suite ==="
  cmake --build "$build_dir" -j "$JOBS" --target qtx_lint test_lint
  echo "=== [lint] qtx-lint over the repository src/ tree ==="
  # The report is uploaded as a CI artifact by the analyze job; --report
  # still writes it when violations are found (exit 1 fails the stage).
  "$build_dir/qtx-lint" --root . --report "$build_dir/lint-report.txt"
  echo "=== [lint] ctest -L lint (fixture diagnostics + exit codes) ==="
  ctest --test-dir "$build_dir" -L lint --output-on-failure -j "$JOBS"
}

tsan() {
  build_dir="build-ci-tsan"
  echo "=== [TSan] configure (QTX_SANITIZE=thread) ==="
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DQTX_SANITIZE=thread \
    -DQTX_BUILD_BENCHES=OFF \
    -DQTX_BUILD_EXAMPLES=OFF
  echo "=== [TSan] build (api + parallel + accel + comm + serve + obs" \
       "suites) ==="
  cmake --build "$build_dir" -j "$JOBS" \
    --target test_api test_parallel test_accel test_comm_transport \
    test_serve test_obs qtx
  echo "=== [TSan] ctest -L 'api|parallel|accel|comm|serve|obs' ==="
  # The race-sensitive suites: the facade (observers, registry), the energy
  # pipeline (thread pool, work stealing, determinism at 8 workers), the
  # accel layer (mixers running on the parallel energy loop), the comm
  # transports (the socket wire framing runs its ranks as threads here, so
  # TSan sees every frame enqueue/drain), the serve daemon (acceptor +
  # worker threads sharing the result cache and stats), and
  # the obs layer (per-thread span buffers and metrics polled mid-run —
  # including TimerRegistry::all()/seconds() against concurrent add()).
  ctest --test-dir "$build_dir" -L "api|parallel|accel|comm|serve|obs" \
    --output-on-failure -j "$JOBS"
}

asan_ubsan() {
  build_dir="build-ci-asan"
  echo "=== [ASan+UBSan] configure (QTX_SANITIZE=address,undefined) ==="
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DQTX_SANITIZE=address,undefined
  echo "=== [ASan+UBSan] build (full tree) ==="
  cmake --build "$build_dir" -j "$JOBS"
  echo "=== [ASan+UBSan] ctest (full suite) ==="
  # halt_on_error makes ASan failures terminate the offending test;
  # leak detection stays on where the kernel allows ptrace (it degrades to
  # a notice inside restricted containers).
  ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"
}

blas() {
  build_dir="build-ci-blas"
  echo "=== [BLAS] configure (QTX_WITH_BLAS=ON) ==="
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DQTX_WERROR=ON \
    -DQTX_WITH_BLAS=ON 2>&1 | tee "${build_dir}-configure.log"
  if ! grep -q 'la "blas" backend: /' "${build_dir}-configure.log"; then
    echo "=== [BLAS] note: CBLAS/LAPACKE not found — the la-backend label" \
         "runs against reference + native only ==="
  fi
  echo "=== [BLAS] build ==="
  cmake --build "$build_dir" -j "$JOBS"
  echo "=== [BLAS] ctest -L la-backend ==="
  # test_la_backends iterates the registry at runtime, so the "blas" rows
  # are exercised exactly when the configure step found the libraries;
  # bench.table4_kernels emits BENCH_table4_kernels.json either way.
  ctest --test-dir "$build_dir" -L la-backend --output-on-failure -j "$JOBS"
}

ranks() {
  build_dir="build-ci-ranks"
  echo "=== [ranks] configure (Release) ==="
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DQTX_WERROR=ON \
    -DQTX_BUILD_EXAMPLES=OFF
  echo "=== [ranks] build (comm suite + qtx + fig6 bench) ==="
  cmake --build "$build_dir" -j "$JOBS" \
    --target test_comm_transport qtx bench_fig6_weak_scaling
  echo "=== [ranks] ctest -L 'comm|golden' ==="
  # The collective contract against every registered transport, the
  # launcher fault-injection cases, and the 1/2/4-rank cross-process
  # determinism goldens. Ranks are forked processes, not threads, so this
  # stage is meaningful even on a single-core runner.
  ctest --test-dir "$build_dir" -L "comm|golden" --output-on-failure \
    -j "$JOBS"
  echo "=== [ranks] Fig. 6 weak-scaling bench (all transports +" \
       "real-process mode) ==="
  (cd "$build_dir" && ./bench_fig6_weak_scaling)
  if command -v python3 > /dev/null 2>&1; then
    echo "=== [ranks] gate BENCH_fig6_weak_scaling.json against" \
         "bench/references.json ==="
    python3 bench/check_bench.py "$build_dir/BENCH_fig6_weak_scaling.json" \
      --trajectory bench/trajectory.jsonl
  else
    echo "=== [ranks] python3 not found — skipping the reference gate ==="
  fi
}

serve() {
  build_dir="build-ci-serve"
  echo "=== [serve] configure (Release) ==="
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DQTX_WERROR=ON \
    -DQTX_BUILD_EXAMPLES=OFF
  echo "=== [serve] build (serve suite + qtx + throughput bench) ==="
  cmake --build "$build_dir" -j "$JOBS" \
    --target test_serve test_golden qtx bench_serve_throughput
  echo "=== [serve] ctest -L 'serve|golden' ==="
  # The daemon's unit suites (result cache, frame/request codecs), the
  # end-to-end socket tests (bit-identity, drain, backpressure,
  # timeouts), and the golden determinism gates including
  # golden.served_quickstart (a served quickstart deck must reproduce
  # tests/golden/quickstart_transmission.txt exactly).
  ctest --test-dir "$build_dir" -L "serve|golden" --output-on-failure \
    -j "$JOBS"
  echo "=== [serve] throughput bench (cold vs cache) ==="
  (cd "$build_dir" && ./bench_serve_throughput)
  if command -v python3 > /dev/null 2>&1; then
    echo "=== [serve] gate BENCH_serve_throughput.json against" \
         "bench/references.json ==="
    python3 bench/check_bench.py \
      "$build_dir/BENCH_serve_throughput.json" \
      --trajectory bench/trajectory.jsonl
  else
    echo "=== [serve] python3 not found — skipping the reference gate ==="
  fi
}

bench_harness() {
  # run.py configures and builds the harness (Release, its own build
  # directory) against this checkout's src/, then runs every workload once
  # at tiny sizes and fails unless each emits all of BENCHMARK.json's
  # metrics and passes its output checks.
  echo "=== [bench-harness] qtxbench build + self-check ==="
  python3 qtxbench/run.py --self-check
}

obs() {
  build_dir="build-ci-obs"
  echo "=== [obs] configure (Release) ==="
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DQTX_WERROR=ON \
    -DQTX_BUILD_BENCHES=OFF \
    -DQTX_BUILD_EXAMPLES=OFF
  echo "=== [obs] build (obs suite + qtx) ==="
  cmake --build "$build_dir" -j "$JOBS" --target test_obs qtx
  echo "=== [obs] ctest -L obs ==="
  # Span nesting + cross-thread-count determinism, Chrome trace rendering
  # and per-rank merge, metrics snapshot/JSON/Prometheus stability, and
  # the serve stats frame round trip against an in-process daemon.
  ctest --test-dir "$build_dir" -L obs --output-on-failure -j "$JOBS"
  echo "=== [obs] traced quickstart (qtx run --trace --metrics) ==="
  "$build_dir/qtx" run scenarios/quickstart.ini \
    --out "$build_dir/obs-quickstart" \
    --trace "$build_dir/trace.json" \
    --metrics "$build_dir/metrics.json" --quiet
  if command -v python3 > /dev/null 2>&1; then
    echo "=== [obs] validate the trace + metrics JSON ==="
    # Hard acceptance invariant: the trace is valid JSON with at least one
    # span per SCBA iteration per stage kind, and the metrics snapshot is
    # valid JSON carrying the FLOP totals.
    python3 - "$build_dir/trace.json" "$build_dir/metrics.json" << 'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
stages = {}
for e in events:
    if e["cat"] == "stage" and "iteration" in e["args"]:
        stages.setdefault(e["args"]["iteration"], set()).add(e["name"])
iterations = sorted(a["iteration"] for a in
                    (e["args"] for e in events if e["cat"] == "iteration"))
assert iterations, "no scba.iteration spans in the trace"
required = {"G: OBC", "G: RGF", "W: Assembly: LHS", "W: Assembly: RHS",
            "W: RGF", "Other: P-FFT", "Other: Sigma-FFT", "mix"}
for it in iterations:
    missing = required - stages.get(it, set())
    assert not missing, f"iteration {it} missing stage spans: {missing}"
assert any(e["cat"] == "kernel" for e in events), "no la kernel spans"
metrics = json.load(open(sys.argv[2]))
assert metrics["counters"].get("qtx.flops.total", 0) > 0
assert metrics["counters"].get("qtx.run.completed") == 1
print(f"trace ok: {len(events)} spans over {len(iterations)} iterations;"
      f" metrics ok: {len(metrics['counters'])} counters,"
      f" {len(metrics['gauges'])} gauges")
EOF
  else
    echo "=== [obs] python3 not found — skipping the JSON validation ==="
  fi
  echo "=== [obs] live daemon scrape (qtx submit --stats) ==="
  sock="$build_dir/obs-ci.sock"
  "$build_dir/qtx" serve --socket "$sock" --workers 1 --quiet \
    > "$build_dir/obs-serve.log" 2>&1 &
  serve_pid=$!
  trap 'kill "$serve_pid" 2> /dev/null || true' RETURN
  for _ in $(seq 1 50); do
    [ -S "$sock" ] && break
    sleep 0.2
  done
  "$build_dir/qtx" submit scenarios/quickstart.ini --socket "$sock" \
    --quiet > /dev/null
  stats="$("$build_dir/qtx" submit --stats --socket "$sock")"
  echo "$stats" | grep -q '"qtx.serve.requests_ok": 1' \
    || { echo "stats scrape missing qtx.serve.requests_ok=1:"; \
         echo "$stats"; kill "$serve_pid" 2> /dev/null; exit 1; }
  echo "$stats" > "$build_dir/serve-stats.json"
  "$build_dir/qtx" submit --shutdown --socket "$sock" --quiet > /dev/null
  wait "$serve_pid" 2> /dev/null || true
  trap - RETURN
  echo "=== [obs] stats scrape ok (snapshot in $build_dir/serve-stats.json) ==="
}

tidy() {
  # Non-fatal when clang-tidy is absent (e.g. minimal containers); when it
  # runs, the curated .clang-tidy check set (bugprone-*, concurrency-*,
  # performance-*) is a hard gate over every library/app translation unit.
  if ! command -v clang-tidy > /dev/null 2>&1; then
    echo "=== [tidy] clang-tidy not found — skipping (install clang-tidy"
    echo "    to run the static-analysis check locally) ==="
    return 0
  fi
  build_dir="build-ci-tidy"
  echo "=== [tidy] configure (compile_commands.json) ==="
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DQTX_BUILD_BENCHES=OFF
  echo "=== [tidy] clang-tidy over src/ + apps/ ==="
  # shellcheck disable=SC2046
  clang-tidy -p "$build_dir" --quiet \
    $(find src apps -name '*.cpp' | sort)
}

docs() {
  # Non-fatal when doxygen is absent (e.g. minimal containers); when it
  # runs, undocumented-public-symbol warnings in the tracked headers are
  # hard failures — the API-reference contract of docs/userguide.md.
  if ! command -v doxygen > /dev/null 2>&1; then
    echo "=== [docs] doxygen not found — skipping (install doxygen to run"
    echo "    the documentation check locally) ==="
    return 0
  fi
  echo "=== [docs] doxygen ==="
  mkdir -p build-docs
  doxygen Doxyfile
  tracked='src/core/simulation\.hpp|src/core/options\.hpp|src/core/stages\.hpp|src/core/stage_registry\.hpp|src/io/[a-z_]*\.hpp|src/accel/[a-z_]*\.hpp|src/analysis/[a-z_]*\.hpp|src/serve/[a-z_]*\.hpp|src/obs/[a-z_]*\.hpp'
  if grep -E "$tracked" build-docs/doxygen-warnings.log 2>/dev/null \
      | grep -i "is not documented" > build-docs/undocumented.log; then
    echo "=== [docs] FAILED: undocumented public symbols in tracked" \
         "headers ===" >&2
    cat build-docs/undocumented.log >&2
    return 1
  fi
  echo "=== [docs] tracked headers fully documented" \
       "(html in build-docs/html) ==="
}

case "$STAGE" in
  build-test) build_test ;;
  lint) lint ;;
  tsan) tsan ;;
  asan-ubsan) asan_ubsan ;;
  blas) blas ;;
  ranks) ranks ;;
  serve) serve ;;
  bench-harness) bench_harness ;;
  obs) obs ;;
  tidy) tidy ;;
  docs) docs ;;
  all)
    build_test
    lint
    tsan
    asan_ubsan
    blas
    ranks
    serve
    bench_harness
    obs
    tidy
    docs
    ;;
  *)
    echo "unknown stage '$STAGE' (expected: build-test, lint, tsan," \
         "asan-ubsan, blas, ranks, serve, bench-harness, obs, tidy, docs," \
         "all)" >&2
    exit 2
    ;;
esac

echo "CI passed (stage: $STAGE)."
