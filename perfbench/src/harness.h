// The benchmark harness: the §7.2 testbed, the op log every workload
// appends to, and the timed wrappers around CyrusClient calls that check
// each call's output.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/chunker/chunker.h"
#include "src/cloud/simulated_csp.h"
#include "src/core/client.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;  // where traced runs write their spans ("" = nowhere)
};

// Coding and chunking parameters of one workload's client.
struct ClientParams {
  uint32_t t = 2;
  uint32_t n = 4;
  cyrus::ChunkerOptions chunker;
};

// Seven unthrottled in-memory CSPs (4 declared fast, 3 declared slow, as
// in bench/common.h MakeTestbed) behind TracingConnectors, and one client.
struct Bed {
  std::vector<std::shared_ptr<cyrus::SimulatedCsp>> csps;
  std::unique_ptr<cyrus::CyrusClient> client;
  std::vector<double> upload_bps;
  std::vector<double> download_bps;
  uint64_t user_bytes = 0;  // content bytes of every successful Put
};

enum class OpKind { kPut, kEditPut, kGet, kScrub };
const char* OpKindName(OpKind kind);

// One CyrusClient call as the benchmark saw it.
struct OpRecord {
  uint64_t id = 0;
  OpKind kind = OpKind::kPut;
  bool measured = false;  // counts toward the end-to-end metrics
  bool traced = false;    // connector/selector spans were recorded
  bool timed_phase = false;  // issued by the closed loop (not setup/repair)
  double start_ms = 0.0;
  double end_ms = 0.0;
  bool ok = false;
  uint64_t user_bytes = 0;  // content written (Put) or returned (Get)
  // Put results.
  size_t total_chunks = 0;
  size_t dedup_chunks = 0;
  uint64_t uploaded_share_bytes = 0;
  uint32_t n = 0;
  // Read results.
  uint64_t downloaded_share_bytes = 0;
  bool whole_file = false;
  double modeled_s = 0.0;  // TransferReport priced over the §7.2 rates
  // Scrub results.
  uint64_t healed_bytes = 0;
  uint64_t repair_bytes_moved = 0;
  uint64_t chunks_repaired = 0;
  uint64_t shares_rebuilt = 0;
  // The program's own trace of this call (traced calls only): summed
  // duration per span name, and how much of the call any span covers.
  std::vector<std::pair<std::string, double>> stage_ms;
  double trace_total_ms = 0.0;
  double trace_covered_ms = 0.0;

  double ms() const { return end_ms - start_ms; }
};

// Storage accounting of one bed, checked against the chunk table.
struct StoredTally {
  uint64_t user_bytes = 0;    // content bytes of every successful Put
  uint64_t stored_bytes = 0;  // bytes held by all CSPs
};

// Everything one run accumulates; workloads append, report.cc reads.
class Run {
 public:
  explicit Run(Options options);

  const Options& options() const { return options_; }
  SpanLog& log() { return log_; }
  cyrus::Rng& rng() { return rng_; }

  Bed MakeBed(const ClientParams& params);

  // Timed, checked client calls. `measured` marks end-to-end samples;
  // `traced` records spans when the run is a traced run.
  bool Put(Bed& bed, OpKind kind, const std::string& name, const cyrus::Bytes& content,
           bool measured, bool traced, bool timed_phase);
  bool Get(Bed& bed, const std::string& name, const cyrus::Bytes& expected,
           bool measured, bool traced, bool timed_phase);
  bool GetRange(Bed& bed, const std::string& name, const cyrus::Bytes& content,
                uint64_t offset, uint64_t len, bool measured, bool traced,
                bool timed_phase);

  // Takes CSP `victim` down, marks it failed and runs ScrubOnce until no
  // chunk is degraded; every pass is one op. Checks that the shares rebuilt
  // equal the redundancy the outage cost.
  void Repair(Bed& bed, int victim);

  // Lists every CSP and checks that share bytes equal n shares of
  // ShareSize(size, t) for every chunk in the chunk table and that share
  // plus metadata bytes equal what the CSPs hold. Adds to `stored()`.
  void TallyStorage(Bed& bed);

  // Client calls of this run. Closed-loop calls check outputs; a failed
  // or mismatching call counts in `failed()`.
  const std::vector<OpRecord>& ops() const { return ops_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return errors_.empty(); }
  void Fail(std::string message);

  const StoredTally& stored() const { return stored_; }
  std::vector<double>& setup_seconds() { return setup_seconds_; }
  const std::vector<double>& setup_seconds() const { return setup_seconds_; }

  // Put content kept for the layer replays (bounded).
  void KeepReplaySample(const cyrus::Bytes& content);
  const std::vector<cyrus::Bytes>& replay_samples() const { return replay_samples_; }
  ClientParams replay_params;

  // Chunk-cache and readahead counters over the closed loop.
  cyrus::ChunkCache::Stats cache_delta;
  cyrus::CyrusClient::ReadaheadStats readahead_delta;

  // Metadata serialize/deserialize replays and per-CSP metadata object
  // counts, taken on the final bed.
  double meta_serialize_us = 0.0;
  double meta_deserialize_us = 0.0;
  double meta_objects_per_csp = 0.0;
  void MeasureMetadata(Bed& bed);

 private:
  OpRecord& BeginOp(OpKind kind, bool measured, bool traced, bool timed_phase);
  void EndOp(OpRecord& op, const char* program_op);
  void CountFailure(OpRecord& op, const std::string& message);

  Options options_;
  SpanLog log_;
  cyrus::obs::TraceCollector traces_;
  cyrus::Rng rng_;
  std::vector<OpRecord> ops_;
  uint64_t next_op_ = 1;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  StoredTally stored_;
  std::vector<double> setup_seconds_;
  std::vector<cyrus::Bytes> replay_samples_;
  uint64_t replay_bytes_ = 0;
};

// `size` seeded random bytes.
cyrus::Bytes RandomBytes(cyrus::Rng& rng, size_t size);

// `content` with `insert_len` seeded random bytes inserted at a seeded
// offset: the small edit whose re-Put dedups against the earlier version.
cyrus::Bytes InsertEdit(cyrus::Rng& rng, const cyrus::Bytes& content, size_t insert_len);

// Peak resident set size of this process in MB (VmHWM).
double PeakRssMB();

// Checks the chunker's boundaries on a fixed corpus against committed
// golden digests; a chunker change that moves boundaries breaks dedup
// against data already stored, so it must fail loudly.
void CheckChunkerGolden(Run& run);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
