#!/usr/bin/env bash
# CI entry point: a Release build running the full tier-1 suite, then a
# ThreadSanitizer build (DCERT_SANITIZE=thread) running the threaded tests
# that exercise the thread-pool/SMT/batched-signature parallel paths, the serving
# subsystem, and the obs metrics hammering, then an AddressSanitizer build
# (DCERT_SANITIZE=address) running the server/transport/obs tests and the
# dcertctl CLI tests (socket and buffer handling), then two legs for the
# SIMD hashing dispatch: the TSan suite re-run under
# DCERT_FORCE_SCALAR_HASH=1 (the scalar fallback must be just as race-free
# as the hardware paths — and this is the only way the fallback gets
# sanitizer coverage on SHA-NI machines), and a
# UBSanitizer build (DCERT_SANITIZE=undefined) running the crypto/tree
# suites over the multi-buffer SHA-256 backends, the batch verifier, and
# the arena allocator (pointer/alignment/shift UB in kernel and pool code).
#
# The Svc selection deliberately includes SvcFaultTest (the seeded
# fault-injection soak and busy-shedding retry tests) and SvcTcpTest
# (deadline, churn, and connection-cap tests): both sanitizers run the
# retry/reconnect and reader-lifecycle paths, where the races and
# use-after-close bugs would live. The obs tests hammer the sharded
# counters/histograms from many threads — the TSan leg is what certifies
# the lock-free recording paths.
#
# Both sanitizer legs also run the crash-recovery suite (CrashRecovery +
# CrashSoak): the soak repeatedly tears the durable issuer down mid-chain
# under an injected exception and recovers, which is exactly where TSan
# finds teardown races and ASan finds use-after-frees in the store/issuer
# lifecycles. The seeded cycle count is bounded via
# DCERT_CRASH_SOAK_CYCLES so the sanitizer runs stay inside the per-test
# timeout (the Release leg runs the full default of 200 cycles).
#
# The checkpoint subsystem gets three angles of coverage: the ckpt_test
# suites and the checkpointed crash soak run under both TSan and ASan
# (bounded by DCERT_CRASH_SOAK_CYCLES like the original soak), and a
# Release-only bench_recovery --verify leg proves the O(delta) recovery
# claim end-to-end on a 10k-block chain — recovery must go through a
# checkpoint and replay at most one interval of tail, or CI fails.
#
# Seeded soaks (gtest names containing "Soak") carry the `soak` ctest label
# and run on their own Release leg (-L soak) so the fast suite stays fast:
# the composed chaos harness runs DCERT_CHAOS_SOAK_CYCLES cycles there
# (default 500, env-overridable), and both sanitizer legs rerun it bounded
# to 40 cycles (TSan's interceptors make the full count blow the timeout
# without covering any new interleavings).
#
# Every ctest invocation carries a per-test --timeout so a hung soak or a
# deadlocked reader fails the run instead of wedging CI.
#
# Usage: tools/ci.sh [build-dir-prefix]   (default: build-ci)
set -euo pipefail

cd "$(dirname "$0")/.."
PREFIX="${1:-build-ci}"
JOBS="$(nproc 2>/dev/null || echo 2)"
TEST_TIMEOUT=300  # seconds per test; the slowest soak is ~10s on a dev box

echo "=== [1/5] Release build + full test suite ==="
cmake -B "${PREFIX}-release" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${PREFIX}-release" -j "${JOBS}"
ctest --test-dir "${PREFIX}-release" --output-on-failure -j "${JOBS}" \
  --timeout "${TEST_TIMEOUT}" -LE soak

echo "=== [1a/5] Release chaos/crash soak leg (-L soak) ==="
# The seeded soaks run on their own leg so the fast suite above stays fast:
# the composed chaos harness (network + disk + crash planes against a live
# fleet, zero unverified replies accepted, convergence to all-breakers-
# closed) at DCERT_CHAOS_SOAK_CYCLES cycles (default 500, env-overridable),
# plus the crash-recovery soak at its full Release default.
DCERT_CHAOS_SOAK_CYCLES="${DCERT_CHAOS_SOAK_CYCLES:-500}" \
ctest --test-dir "${PREFIX}-release" --output-on-failure -j "${JOBS}" \
  --timeout "${TEST_TIMEOUT}" -L soak

echo "=== [1b/5] bench_serving --fleet 1x1 smoke (multi-process topology) ==="
# The smallest fleet: one re-exec'd shard-server child over TCP, plus the
# verified scatter-gather pass. Pins the fork/exec/PORT-handshake/shutdown
# machinery and the sharded request framing without benchmarking anything.
"${PREFIX}-release/bench/bench_serving" --fleet 1x1 \
  --requests 200 --rps 4000 --blocks 4 --txs 8 >/dev/null

echo "=== [1c/5] perfbench smoke (every benchmark workload's correctness gate) ==="
# Runs certify, query_hot and query_churn at a tiny size, untraced and
# traced: every declared metric must be present, every certificate and
# verified reply must check out, and the certificate-chain digest of a seed
# must repeat. Builds its own Release tree under .bench_build/.
python3 perfbench/smoke.py

echo "=== [1d/5] bench_recovery --verify (10k-chain tail-only replay) ==="
# Builds a 10k-block chain under checkpoint cadence and recovers it: exits
# nonzero unless recovery went through a checkpoint (ci.ckpt.loaded advanced,
# bootstrap height > 0) and replayed at most one interval of tail — i.e. the
# O(delta) recovery claim holds at a chain length where full replay would
# take ~25x longer. Also times the O(1) superlight bootstrap from the same
# checkpoint. Release-only: the chain build dominates and sanitizers would
# triple it without covering any new code (the soaks cover crash paths).
"${PREFIX}-release/bench/bench_recovery" --verify --blocks 10000

echo "=== [2/5] TSan build + threaded tests ==="
cmake -B "${PREFIX}-tsan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDCERT_SANITIZE=thread
cmake --build "${PREFIX}-tsan" -j "${JOBS}" --target \
  thread_pool_test parallel_equivalence_test smt_test dcert_test svc_test \
  fleet_test obs_test record_log_test crash_recovery_test ckpt_test chaos_test \
  certify_once_test
DCERT_CRASH_SOAK_CYCLES=50 DCERT_CHAOS_SOAK_CYCLES=40 \
ctest --test-dir "${PREFIX}-tsan" --output-on-failure -j "${JOBS}" \
  --timeout "${TEST_TIMEOUT}" \
  -R 'ThreadPool|ParallelEquivalence|Smt|Svc|Fleet|ShardMap|ShardServing|Counter|Gauge|Histogram|Registry|Snapshot|Trace|Enabled|RecordLog|CrashPoints|CrashRecovery|CrashSoak|SealedIssuer|Checkpoint|Superlight|Chaos|VerifyTxSignatures|CertifyOnce|IssuerPipeline|IssuerIndexGap'
  # Svc matches SvcFaultTest/SvcTcpTest/SvcStatsTest/SvcExecutionTest (the
  # permit-bounded, on-transport-thread execution model); the obs suites cover
  # the concurrent counter/histogram/trace hammering. Fleet|ShardMap|
  # ShardServing run the router fan-out, scatter-gather fan-out threads, and
  # the pooled-connection paths — the fleet's concurrency lives there.
  # Superlight matches SuperlightTest (the IAS-binding case) and
  # SuperlightBootstrap. CrashSoak includes the checkpointed seeded soak
  # (crash sites inside rotation, compaction rename, and checkpoint seal);
  # Checkpoint matches the ckpt format/store/issuer/SP-export suites.
  # VerifyTxSignatures and CertifyOnce run the batched signature check
  # across the shared pool; IssuerPipeline the issuer's aux capture, which
  # runs on the pool for both index schemes; IssuerIndexGap the refusals of
  # the paths that would leave an attached index behind. Svc also matches
  # SvcWorkflowTest (uncertified blocks move nothing) and SvcRestoreTest
  # (every checkpoint/stores combination of SpServer::Restore).

echo "=== [3/5] ASan build + serving/transport tests ==="
cmake -B "${PREFIX}-asan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDCERT_SANITIZE=address
cmake --build "${PREFIX}-asan" -j "${JOBS}" --target \
  svc_test thread_pool_test fleet_test obs_test record_log_test \
  crash_recovery_test ckpt_test chaos_test common_test dcert_test \
  dcertctl cli_test certify_once_test robustness_test
DCERT_CRASH_SOAK_CYCLES=50 DCERT_CHAOS_SOAK_CYCLES=40 \
ctest --test-dir "${PREFIX}-asan" --output-on-failure -j "${JOBS}" \
  --timeout "${TEST_TIMEOUT}" \
  -R 'Serialize|Svc|ThreadPool|Fleet|ShardMap|ShardServing|Counter|Gauge|Histogram|Registry|Snapshot|Trace|Enabled|Export|Overhead|RecordLog|CrashPoints|CrashRecovery|CrashSoak|SealedIssuer|Checkpoint|Superlight|Chaos|Cli|FullNodeAppend|IndexSigGenEnvelope|HistoricalApplyBlock|EcallInputBytes|IssuerPipeline|IssuerIndexGap|WireFuzz'
  # Serialize covers the strict field decoders every wire codec sits on.
  # Cli runs the ASan-built dcertctl, including `serve` answering
  # `query tip|hist|agg` over TCP, so the tool's socket path is covered.
  # The checkpoint legs under ASan pin the mmap'd sealed-segment reads and
  # the serialize/deserialize buffer handling in the .dcp codec; the soak's
  # torn-seal site leaves half-written tmp files for Open() to clean up.
  # FullNodeAppend runs the commit rollback (the SMT nodes a refused write
  # set creates and frees), IndexSigGenEnvelope the batched certificate
  # checks over faulted fields, HistoricalApplyBlock the SP's index apply
  # against the aux-capturing one, EcallInputBytes the byte counts,
  # IssuerPipeline the refused blocks that must commit nothing,
  # IssuerIndexGap the refused adopt, batch and backfill calls. Svc runs
  # SvcWorkflowTest and SvcRestoreTest with the rest of svc_test. WireFuzz
  # feeds mutated proof, block and certificate bytes to every decoder.

echo "=== [4/5] TSan + forced-scalar hashing (dispatch fallback path) ==="
# Same TSan build, but every digest takes the portable scalar road. The
# threaded SMT tests then certify that the batch-hash sharding and
# the thread_local scratch in the fallback are race-free; the Sha256 suite
# (incl. the dispatch tests) runs to pin the resolved backends.
DCERT_FORCE_SCALAR_HASH=1 DCERT_CRASH_SOAK_CYCLES=50 \
ctest --test-dir "${PREFIX}-tsan" --output-on-failure -j "${JOBS}" \
  --timeout "${TEST_TIMEOUT}" \
  -R 'ThreadPool|ParallelEquivalence|Smt|Sha256|Svc'

echo "=== [5/5] UBSan build + SIMD/crypto/tree tests ==="
cmake -B "${PREFIX}-ubsan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDCERT_SANITIZE=undefined
cmake --build "${PREFIX}-ubsan" -j "${JOBS}" --target \
  sha256_test signature_test secp256k1_test smt_test merkle_tree_test \
  mbtree_test common_test dcert_test svc_test fleet_test certify_once_test \
  robustness_test
ctest --test-dir "${PREFIX}-ubsan" --output-on-failure -j "${JOBS}" \
  --timeout "${TEST_TIMEOUT}" \
  -R 'Serialize|Svc|Sha256|HmacSha256|Signature|VerifyBatch|Secp256k1|Curve|Smt|Merkle|Mb|Arena|Dcert|Superlight|Fleet|ShardMap|FullNodeAppend|IndexSigGenEnvelope|HistoricalApplyBlock|EcallInputBytes|IssuerPipeline|IssuerIndexGap|WireFuzz'
  # Sha256BatchTest exercises every supported multi-buffer backend (AVX2
  # lane loads, SHA-NI interleaves); VerifyBatchTest covers the combined
  # verification equation; ArenaTest covers the placement-new pool.
  # Serialize and Svc run the field decoders and the reply codecs (query
  # replies carry the tip or its key) over truncated and padded frames.
  # Superlight runs the IAS-signature binding over every flipped signature
  # bit. Fleet and ShardMap run the fleet client's tip memo, failover and
  # the shard arithmetic. The certify_once selection (as under ASan) runs
  # the commit rollback, the four-signature IndexSigGen batch, the SP's
  # ApplyBlock, the issuer pipeline's refusals and the index-gap refusals;
  # Svc includes the workflow and restore tables. WireFuzz runs the proof
  # and wire decoders over mutated bytes (as under ASan).

echo "CI OK"
