#include "perfbench/src/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bench/common.h"
#include "perfbench/src/stats.h"
#include "src/core/reliability.h"
#include "src/crypto/sha1.h"
#include "src/meta/metadata.h"
#include "src/rs/secret_sharing.h"

namespace perfbench {

using cyrus::Bytes;

namespace {

// Traces the client records into. Traced calls copy their own trace out
// as soon as they return, so the ring only needs the latest few.
constexpr size_t kTraceCapacity = 64;
// Put content kept for the layer replays.
constexpr uint64_t kReplayBudgetBytes = 64ull << 20;

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kPut:
      return "put";
    case OpKind::kEditPut:
      return "edit_put";
    case OpKind::kGet:
      return "get";
    case OpKind::kScrub:
      return "scrub";
  }
  return "?";
}

Run::Run(Options options)
    : options_(std::move(options)), traces_(kTraceCapacity), rng_(options_.seed) {}

Bed Run::MakeBed(const ClientParams& params) {
  Bed bed;
  cyrus::CyrusConfig config;
  config.client_id = "perfbench";
  config.key_string = "perfbench-key-" + std::to_string(options_.seed);
  config.t = params.t;
  config.chunker = params.chunker;
  config.cluster_aware = false;
  config.default_failure_prob = 0.01;
  // Pin Eq. (1) to exactly n, as bench/common.cc MakeTestbed does.
  const double loss_n = cyrus::ChunkLossProbability(params.t, params.n, 0.01);
  const double loss_prev = cyrus::ChunkLossProbability(params.t, params.n - 1, 0.01);
  config.epsilon = std::sqrt(loss_n * loss_prev);
  config.traces = &traces_;
  auto client = cyrus::CyrusClient::Create(config);
  if (!client.ok()) {
    Fail("CyrusClient::Create: " + client.status().ToString());
    return bed;
  }
  bed.client = std::move(client).value();
  bed.client->set_download_selector(std::make_unique<TimedSelector>(&log_));

  const int num_csps = cyrus::bench::kNumFastClouds + cyrus::bench::kNumSlowClouds;
  for (int i = 0; i < num_csps; ++i) {
    const bool fast = i < cyrus::bench::kNumFastClouds;
    cyrus::SimulatedCspOptions o;
    o.id = std::string(fast ? "fast" : "slow") + std::to_string(i);
    o.naming = (i % 2 == 0) ? cyrus::NamingPolicy::kNameKeyed
                            : cyrus::NamingPolicy::kIdKeyed;
    auto csp = std::make_shared<cyrus::SimulatedCsp>(o);
    const double rate =
        fast ? cyrus::bench::kFastCloudBytesPerSec : cyrus::bench::kSlowCloudBytesPerSec;
    cyrus::CspProfile profile;
    profile.rtt_ms = 1.0;
    profile.download_bytes_per_sec = rate;
    profile.upload_bytes_per_sec = rate;
    auto added = bed.client->AddCsp(std::make_shared<TracingConnector>(csp, i, &log_),
                                    profile, cyrus::Credentials{"token"});
    if (!added.ok()) {
      Fail("AddCsp: " + added.status().ToString());
    }
    bed.csps.push_back(std::move(csp));
    bed.upload_bps.push_back(rate);
    bed.download_bps.push_back(rate);
  }
  return bed;
}

OpRecord& Run::BeginOp(OpKind kind, bool measured, bool traced, bool timed_phase) {
  OpRecord op;
  op.id = next_op_++;
  op.kind = kind;
  op.measured = measured;
  op.traced = traced && options_.trace;
  op.timed_phase = timed_phase;
  ops_.push_back(op);
  ++attempted_;
  log_.set_current_op(op.id);
  log_.set_enabled(op.traced);
  ops_.back().start_ms = NowMs();
  return ops_.back();
}

void Run::EndOp(OpRecord& op, const char* program_op) {
  op.end_ms = NowMs();
  log_.set_enabled(false);
  log_.set_current_op(0);
  if (op.traced) {
    // The client records one trace per call; with one call outstanding the
    // latest trace of this op's name is this call's.
    cyrus::obs::Trace trace;
    if (traces_.Latest(program_op, &trace)) {
      std::vector<Interval> covered;
      for (const cyrus::obs::TraceSpan& s : trace.spans) {
        covered.push_back({s.start_ms, s.start_ms + s.duration_ms});
        auto it = std::find_if(op.stage_ms.begin(), op.stage_ms.end(),
                               [&](const auto& e) { return e.first == s.name; });
        if (it == op.stage_ms.end()) {
          op.stage_ms.emplace_back(s.name, s.duration_ms);
        } else {
          it->second += s.duration_ms;
        }
      }
      op.trace_total_ms = trace.total_ms;
      op.trace_covered_ms = CoveredLength({0.0, trace.total_ms}, covered);
    }
  }
}

void Run::CountFailure(OpRecord& op, const std::string& message) {
  op.ok = false;
  ++failed_;
  Fail(std::string(OpKindName(op.kind)) + " op " + std::to_string(op.id) + ": " + message);
}

void Run::Fail(std::string message) {
  if (errors_.size() < 20) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", message.c_str());
  }
  errors_.push_back(std::move(message));
}

bool Run::Put(Bed& bed, OpKind kind, const std::string& name, const Bytes& content,
              bool measured, bool traced, bool timed_phase) {
  OpRecord& op = BeginOp(kind, measured, traced, timed_phase);
  auto result = bed.client->Put(name, content);
  EndOp(op, "Put");
  if (!result.ok()) {
    CountFailure(op, name + ": " + result.status().ToString());
    return false;
  }
  if (result->unchanged) {
    // Every Put the workloads issue carries content new to its name.
    CountFailure(op, name + ": Put reported unchanged content");
    return false;
  }
  op.ok = true;
  op.user_bytes = content.size();
  op.total_chunks = result->total_chunks;
  op.dedup_chunks = result->dedup_chunks;
  op.uploaded_share_bytes = result->uploaded_share_bytes;
  op.n = result->n;
  bed.user_bytes += content.size();
  return true;
}

bool Run::Get(Bed& bed, const std::string& name, const Bytes& expected, bool measured,
              bool traced, bool timed_phase) {
  OpRecord& op = BeginOp(OpKind::kGet, measured, traced, timed_phase);
  auto result = bed.client->Get(name);
  EndOp(op, "Get");
  if (!result.ok()) {
    CountFailure(op, name + ": " + result.status().ToString());
    return false;
  }
  if (result->content != expected) {
    CountFailure(op, name + ": Get returned different bytes than were Put");
    return false;
  }
  op.ok = true;
  op.whole_file = true;
  op.user_bytes = result->content.size();
  op.downloaded_share_bytes = result->transfer.TotalBytes(cyrus::TransferKind::kGet);
  if (measured) {
    op.modeled_s = cyrus::bench::TransferCompletionSeconds(result->transfer, bed.upload_bps,
                                                           bed.download_bps);
  }
  return true;
}

bool Run::GetRange(Bed& bed, const std::string& name, const Bytes& content,
                   uint64_t offset, uint64_t len, bool measured, bool traced,
                   bool timed_phase) {
  OpRecord& op = BeginOp(OpKind::kGet, measured, traced, timed_phase);
  auto result = bed.client->GetRange(name, offset, len);
  EndOp(op, "GetRange");
  if (!result.ok()) {
    CountFailure(op, name + ": " + result.status().ToString());
    return false;
  }
  const uint64_t end = std::min<uint64_t>(offset + len, content.size());
  if (result->range_offset != offset || result->content.size() != end - offset ||
      !std::equal(result->content.begin(), result->content.end(),
                  content.begin() + static_cast<std::ptrdiff_t>(offset))) {
    CountFailure(op, name + ": GetRange returned different bytes than were Put");
    return false;
  }
  op.ok = true;
  op.user_bytes = result->content.size();
  op.downloaded_share_bytes = result->transfer.TotalBytes(cyrus::TransferKind::kGet);
  if (measured) {
    op.modeled_s = cyrus::bench::TransferCompletionSeconds(result->transfer, bed.upload_bps,
                                                           bed.download_bps);
  }
  return true;
}

namespace {

struct Deficit {
  uint64_t shares = 0;
  uint64_t bytes = 0;
  size_t degraded_chunks = 0;
};

Deficit ScanDeficit(Bed& bed) {
  Deficit d;
  for (const cyrus::ChunkHealth& h : bed.client->ScrubScan()) {
    if (h.degraded()) {
      ++d.degraded_chunks;
      d.shares += h.missing();
      d.bytes += h.missing() * cyrus::ShareSize(h.size, h.t);
    }
  }
  return d;
}

}  // namespace

void Run::Repair(Bed& bed, int victim) {
  bed.csps[victim]->set_available(false);
  cyrus::Status marked = bed.client->MarkCspFailed(victim);
  if (!marked.ok()) {
    Fail("MarkCspFailed: " + marked.ToString());
    return;
  }
  const Deficit initial = ScanDeficit(bed);
  Deficit before = initial;
  uint64_t rebuilt = 0;
  constexpr int kMaxPasses = 8;
  for (int pass = 0; pass < kMaxPasses && before.degraded_chunks > 0; ++pass) {
    OpRecord& op = BeginOp(OpKind::kScrub, /*measured=*/true, /*traced=*/true, false);
    auto report = bed.client->ScrubOnce();
    EndOp(op, "ScrubOnce");
    if (!report.ok()) {
      CountFailure(op, "ScrubOnce: " + report.status().ToString());
      return;
    }
    op.ok = true;
    op.chunks_repaired = report->stats.chunks_repaired;
    op.shares_rebuilt = report->stats.shares_rebuilt;
    op.repair_bytes_moved = report->stats.bytes_moved;
    rebuilt += report->stats.shares_rebuilt;
    const Deficit after = ScanDeficit(bed);
    op.healed_bytes = before.bytes - std::min(before.bytes, after.bytes);
    before = after;
  }
  if (before.degraded_chunks > 0) {
    Fail("scrub left " + std::to_string(before.degraded_chunks) + " chunks degraded");
  }
  if (rebuilt != initial.shares) {
    Fail("scrub rebuilt " + std::to_string(rebuilt) + " shares for a deficit of " +
         std::to_string(initial.shares));
  }
}

void Run::TallyStorage(Bed& bed) {
  uint64_t share_bytes = 0;
  uint64_t meta_bytes = 0;
  uint64_t meta_objects = 0;
  uint64_t used = 0;
  for (const auto& csp : bed.csps) {
    used += csp->used_bytes();
    auto listing = csp->List("");
    if (!listing.ok()) {
      Fail("List(" + std::string(csp->id()) + "): " + listing.status().ToString());
      return;
    }
    for (const cyrus::ObjectInfo& object : *listing) {
      if (object.name.rfind("meta-", 0) == 0) {
        meta_bytes += object.size;
        ++meta_objects;
      } else {
        share_bytes += object.size;
      }
    }
  }
  uint64_t expected_share_bytes = 0;
  const cyrus::ChunkTable& table = bed.client->chunk_table();
  for (const cyrus::Sha1Digest& id : table.AllChunkIds()) {
    const cyrus::ChunkEntry* entry = table.Find(id);
    expected_share_bytes += entry->shares.size() * cyrus::ShareSize(entry->size, entry->t);
  }
  if (share_bytes != expected_share_bytes) {
    Fail("CSPs hold " + std::to_string(share_bytes) +
         " share bytes; the chunk table accounts for " +
         std::to_string(expected_share_bytes));
  }
  if (share_bytes + meta_bytes != used) {
    Fail("CSP listings sum to " + std::to_string(share_bytes + meta_bytes) +
         " bytes but the CSPs report " + std::to_string(used));
  }
  stored_.user_bytes += bed.user_bytes;
  stored_.stored_bytes += used;
  meta_objects_per_csp =
      static_cast<double>(meta_objects) / static_cast<double>(bed.csps.size());
}

void Run::MeasureMetadata(Bed& bed) {
  std::vector<const cyrus::FileVersion*> versions = bed.client->tree().AllVersions();
  constexpr size_t kMaxSamples = 512;
  const size_t stride = std::max<size_t>(1, versions.size() / kMaxSamples);
  double serialize_ms = 0.0;
  double deserialize_ms = 0.0;
  size_t samples = 0;
  for (size_t i = 0; i < versions.size(); i += stride) {
    const cyrus::FileVersion& version = *versions[i];
    const double t0 = NowMs();
    const Bytes wire = version.Serialize();
    const double t1 = NowMs();
    auto back = cyrus::FileVersion::Deserialize(wire);
    const double t2 = NowMs();
    if (!back.ok() || back->id != version.id || back->chunks.size() != version.chunks.size() ||
        back->shares.size() != version.shares.size()) {
      Fail("FileVersion round trip changed version " + version.id.ToHex());
      continue;
    }
    serialize_ms += t1 - t0;
    deserialize_ms += t2 - t1;
    ++samples;
  }
  if (samples > 0) {
    meta_serialize_us = serialize_ms * 1e3 / static_cast<double>(samples);
    meta_deserialize_us = deserialize_ms * 1e3 / static_cast<double>(samples);
  }
}

void Run::KeepReplaySample(const Bytes& content) {
  if (replay_bytes_ >= kReplayBudgetBytes) {
    return;
  }
  replay_bytes_ += content.size();
  replay_samples_.push_back(content);
}

Bytes RandomBytes(cyrus::Rng& rng, size_t size) {
  Bytes out(size);
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const uint64_t word = rng.Next();
    std::memcpy(out.data() + i, &word, 8);
  }
  for (; i < size; ++i) {
    out[i] = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

Bytes InsertEdit(cyrus::Rng& rng, const Bytes& content, size_t insert_len) {
  const size_t at = static_cast<size_t>(rng.NextBelow(content.size() + 1));
  const Bytes insert = RandomBytes(rng, insert_len);
  Bytes out;
  out.reserve(content.size() + insert_len);
  out.insert(out.end(), content.begin(), content.begin() + static_cast<std::ptrdiff_t>(at));
  out.insert(out.end(), insert.begin(), insert.end());
  out.insert(out.end(), content.begin() + static_cast<std::ptrdiff_t>(at), content.end());
  return out;
}

double PeakRssMB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  return 0.0;
}

void CheckChunkerGolden(Run& run) {
  // SHA-1 of the "offset,size\n" boundary list each chunker setting
  // produces on an 8 MB corpus from Rng(20150421). Regenerate only when a
  // boundary change is intended and stored data is migrated with it.
  struct Golden {
    const char* name;
    cyrus::ChunkerOptions options;
    const char* digest;
  };
  cyrus::ChunkerOptions stream;
  stream.modulus = 256 * 1024;
  stream.min_chunk_size = 64 * 1024;
  stream.max_chunk_size = 1024 * 1024;
  const Golden goldens[] = {
      {"default", cyrus::ChunkerOptions{}, "d5c2f1dcce1be3418ebd525ce09064c045f8260d"},
      {"stream", stream, "12632fd3c91902ee18adc742fc116672ae229d71"},
      {"testing", cyrus::ChunkerOptions::ForTesting(),
       "b1b3a80c39a3a6f21d2d8a7c725183e9c03cc816"},
  };
  cyrus::Rng corpus_rng(20150421);
  const Bytes corpus = RandomBytes(corpus_rng, 8u << 20);
  for (const Golden& golden : goldens) {
    auto chunker = cyrus::Chunker::Create(golden.options);
    if (!chunker.ok()) {
      run.Fail(std::string("Chunker::Create(") + golden.name + ")");
      continue;
    }
    cyrus::Sha1 h;
    for (const cyrus::ChunkSpan& span : chunker->Split(corpus)) {
      h.Update(std::to_string(span.offset) + "," + std::to_string(span.size) + "\n");
    }
    const std::string digest = h.Finish().ToHex();
    if (digest != golden.digest) {
      run.Fail(std::string("chunk boundaries moved for the ") + golden.name +
               " chunker: " + digest + " != golden " + golden.digest);
    }
  }
}

}  // namespace perfbench
