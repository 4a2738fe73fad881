// Figure 8 — block certificate construction time per Blockbench workload,
// broken into the untrusted pre-processing outside the enclave (read/write
// set generation, Merkle proof generation) and the trusted program inside.
// The "native" column runs the identical trusted code without the SGX cost
// model; "enclave" applies the modelled SGX overheads (transitions, MEE
// slowdown, EPC paging) — the paper's observation is that the enclave costs
// at most ~1.8x native.
#include "bench/bench_util.h"
#include "query/historical_index.h"

using namespace dcert;
using namespace dcert::bench;

int main(int argc, char** argv) {
  const std::string json_path = ParseJsonPath(argc, argv);
  const MetricsDelta metrics_delta;
  PrintHeader("Fig. 8", "certificate construction time per workload (breakdown)");
  PrintParams("block size 100 txs, 20 blocks per workload, 100 sender accounts; "
              "CPU: 256 hash iterations/tx, IO: 32 keys/tx, KV: 500 tuples");

  std::printf("%4s | %9s %9s | %11s %12s %7s | %9s | %9s\n", "wl", "rw-set",
              "proofs", "in-encl raw", "in-encl SGX", "factor", "total ms",
              "commit");
  std::printf("-----+---------------------+----------------------------------+-----------+----------\n");

  std::vector<std::string> json_rows;
  for (workloads::Workload kind : workloads::kAllWorkloads) {
    Rig rig(kind, /*accounts=*/100, /*instances=*/4);
    const int kBlocks = 20;
    const std::size_t kBlockSize = 100;

    std::vector<double> rwset_ms, proof_ms, wall_ms, modeled_ms, total_ms,
        commit_ms;
    for (int i = 0; i < kBlocks; ++i) {
      chain::Block blk = rig.MineNext(kBlockSize);
      auto cert = rig.ci->ProcessBlock(blk);
      if (!cert.ok()) {
        std::fprintf(stderr, "%s cert failed: %s\n",
                     workloads::Name(kind).c_str(), cert.message().c_str());
        return 1;
      }
      const core::CertTiming& t = rig.ci->LastTiming();
      rwset_ms.push_back(static_cast<double>(t.rwset_ns) / 1e6);
      proof_ms.push_back(static_cast<double>(t.proof_ns) / 1e6);
      wall_ms.push_back(static_cast<double>(t.enclave_wall_ns) / 1e6);
      modeled_ms.push_back(static_cast<double>(t.enclave_modeled_ns) / 1e6);
      total_ms.push_back(t.TotalMs(/*modeled=*/true));
      commit_ms.push_back(static_cast<double>(t.commit_ns) / 1e6);
    }
    double factor = Mean(wall_ms) > 0 ? Mean(modeled_ms) / Mean(wall_ms) : 0.0;
    std::printf("%4s | %9.2f %9.2f | %11.2f %12.2f %6.2fx | %9.2f | %9.2f\n",
                workloads::Name(kind).c_str(), Mean(rwset_ms), Mean(proof_ms),
                Mean(wall_ms), Mean(modeled_ms), factor, Mean(total_ms),
                Mean(commit_ms));

    JsonObject row;
    row.Put("workload", workloads::Name(kind))
        .PutRaw("rwset_ms", JsonStats(rwset_ms))
        .PutRaw("proof_ms", JsonStats(proof_ms))
        .PutRaw("enclave_raw_ms", JsonStats(wall_ms))
        .PutRaw("enclave_sgx_ms", JsonStats(modeled_ms))
        .PutRaw("total_ms", JsonStats(total_ms))
        .PutRaw("commit_ms", JsonStats(commit_ms))
        .Put("sgx_factor", factor);
    json_rows.push_back(row.Str());
  }

  // Index-attached leg (Alg. 5): certify a historical index alongside each
  // block so the ci.stage.index_aux_ns stage sees real traffic — without it
  // that histogram ships as a dead count:0 entry in the artifacts.
  std::vector<double> aux_ms, hier_total_ms;
  {
    Rig rig(workloads::Workload::kKvStore, /*accounts=*/100, /*instances=*/4);
    rig.ci->AttachIndex(std::make_shared<query::HistoricalIndex>("hist"));
    const int kHierBlocks = 10;
    for (int i = 0; i < kHierBlocks; ++i) {
      chain::Block blk = rig.MineNext(100);
      auto certs = rig.ci->ProcessBlockHierarchical(blk);
      if (!certs.ok()) {
        std::fprintf(stderr, "hierarchical cert failed: %s\n",
                     certs.message().c_str());
        return 1;
      }
      const core::CertTiming& t = rig.ci->LastTiming();
      aux_ms.push_back(static_cast<double>(t.index_aux_ns) / 1e6);
      hier_total_ms.push_back(t.TotalMs(/*modeled=*/true));
    }
    std::printf(
        "\nhierarchical leg (KV + historical index, %d blocks): "
        "index aux %.2f ms/blk, total %.2f ms/blk\n",
        kHierBlocks, Mean(aux_ms), Mean(hier_total_ms));
  }

  if (!json_path.empty()) {
    JsonObject doc;
    JsonObject hier;
    hier.Put("workload", "KV+hist")
        .Put("blocks", 10)
        .PutRaw("index_aux_ms", JsonStats(aux_ms))
        .PutRaw("total_ms", JsonStats(hier_total_ms));
    doc.Put("bench", "bench_cert_construction")
        .Put("figure", "Fig. 8")
        .Put("block_txs", 100)
        .Put("blocks_per_workload", 20)
        .PutRaw("meta", JsonRunMeta())
        .PutRaw("metrics", metrics_delta.Json())
        .PutRaw("workloads", JsonArray(json_rows))
        .PutRaw("hierarchical", hier.Str());
    WriteJsonFile(json_path, doc.Str());
  }

  std::printf(
      "\ncolumns: rw-set = tx execution + read/write set generation (outside);\n"
      "proofs = Merkle update-proof generation (outside); in-encl raw = trusted\n"
      "program wall time; in-encl SGX = with modelled enclave overheads;\n"
      "factor = SGX/native for the in-enclave part (paper: at most ~1.8x);\n"
      "total = outside + in-encl SGX; commit = appending the certified block\n"
      "to the CI's full node (after the Ecall, not part of total).\n");
  return 0;
}
