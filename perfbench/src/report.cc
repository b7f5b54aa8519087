#include "perfbench/src/report.h"

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <map>

#include "perfbench/src/stats.h"
#include "src/crypto/sha1.h"
#include "src/rs/secret_sharing.h"

namespace perfbench {

using cyrus::Bytes;
using cyrus::ByteSpan;

namespace {

bool IsPut(const OpRecord& op) {
  return op.kind == OpKind::kPut || op.kind == OpKind::kEditPut;
}

std::string Count(size_t n, const char* what) {
  return std::to_string(n) + " " + what;
}

// User bytes of the successful calls over the wall time of all of them.
Metric Throughput(const Run& run, const char* name, OpKind kind) {
  uint64_t bytes = 0;
  double ms = 0.0;
  size_t calls = 0;
  for (const OpRecord& op : run.ops()) {
    if (op.measured && op.kind == kind) {
      bytes += op.ok ? op.user_bytes : 0;
      ms += op.ms();
      ++calls;
    }
  }
  return {name, MBps(bytes, ms / 1e3), "MB/s",
          Count(calls, "calls") + ", " + std::to_string(bytes) + " bytes"};
}

// <prefix>_p50_ms and <prefix>_p99_ms of `samples`, where the "p99" is
// the tail percentile the sample count supports (TailPercentileFor).
std::pair<Metric, Metric> Percentiles(const std::string& prefix,
                                      const std::vector<double>& samples) {
  const double tail = TailPercentileFor(samples.size());
  char note[64];
  std::snprintf(note, sizeof(note), "p%g of %zu calls", tail, samples.size());
  return {{prefix + "_p50_ms", Median(samples), "ms", Count(samples.size(), "calls")},
          {prefix + "_p99_ms", Percentile(samples, tail), "ms", note}};
}

// Latency of the measured calls `pred` selects. A failed call misses every
// percentile: it enters as the largest finite time.
template <typename Pred>
std::pair<Metric, Metric> Latency(const Run& run, const std::string& prefix, Pred pred) {
  std::vector<double> samples;
  for (const OpRecord& op : run.ops()) {
    if (op.measured && pred(op)) {
      samples.push_back(op.ok ? op.ms() : DBL_MAX);
    }
  }
  return Percentiles(prefix, samples);
}

// Layer throughputs replayed on the workload's own Put content.
struct Replay {
  double split_MBps = 0.0;
  double chunks_per_MB = 0.0;
  double sha1_MBps = 0.0;
  double encode_MBps = 0.0;
  double decode_MBps = 0.0;
};

Replay RunReplays(Run& run) {
  Replay r;
  const ClientParams& params = run.replay_params;
  auto chunker = cyrus::Chunker::Create(params.chunker);
  auto codec = cyrus::SecretSharingCodec::Create("perfbench-replay", params.t, params.n);
  if (!chunker.ok() || !codec.ok()) {
    run.Fail("replay: cannot create the chunker or codec");
    return r;
  }
  uint64_t bytes = 0;
  size_t chunks = 0;
  double split_ms = 0.0;
  double sha_ms = 0.0;
  double encode_ms = 0.0;
  double decode_ms = 0.0;
  for (const Bytes& sample : run.replay_samples()) {
    double t0 = NowMs();
    const std::vector<cyrus::ChunkSpan> spans = chunker->Split(sample);
    split_ms += NowMs() - t0;
    bytes += sample.size();
    chunks += spans.size();
    for (const cyrus::ChunkSpan& span : spans) {
      const ByteSpan chunk(sample.data() + span.offset, span.size);
      t0 = NowMs();
      const cyrus::Sha1Digest digest = cyrus::Sha1::Hash(chunk);
      sha_ms += NowMs() - t0;

      const size_t share_size = cyrus::ShareSize(chunk.size(), params.t);
      std::vector<Bytes> shares(params.n, Bytes(share_size));
      std::vector<cyrus::MutableByteSpan> dsts(shares.begin(), shares.end());
      t0 = NowMs();
      const cyrus::Status encoded = codec->EncodeInto(chunk, dsts);
      encode_ms += NowMs() - t0;

      // Decode from the last t shares, so the inverse is not the identity.
      std::vector<cyrus::Share> input;
      for (uint32_t i = params.n - params.t; i < params.n; ++i) {
        input.push_back({i, std::move(shares[i])});
      }
      Bytes decoded(chunk.size());
      t0 = NowMs();
      const cyrus::Status status = codec->DecodeInto(input, decoded);
      decode_ms += NowMs() - t0;
      if (!encoded.ok() || !status.ok() || cyrus::Sha1::Hash(decoded) != digest) {
        run.Fail("replay: codec round trip changed a chunk");
      }
    }
  }
  r.split_MBps = MBps(bytes, split_ms / 1e3);
  r.chunks_per_MB = Ratio(static_cast<double>(chunks), static_cast<double>(bytes) / 1e6);
  r.sha1_MBps = MBps(bytes, sha_ms / 1e3);
  r.encode_MBps = MBps(bytes, encode_ms / 1e3);
  r.decode_MBps = MBps(bytes, decode_ms / 1e3);
  return r;
}

double MsAt(uint64_t bytes, double mbps) {
  return mbps > 0.0 ? static_cast<double>(bytes) / 1e6 / mbps * 1e3 : 0.0;
}

// What one op hashes by design: a Put hashes its content (content id),
// every chunk (chunk ids) and every uploaded share (share digests); a read
// hashes every downloaded share and decoded chunk, and a whole-file Get
// re-hashes the assembled file.
uint64_t HashedBytes(const OpRecord& op) {
  if (IsPut(op)) {
    return 2 * op.user_bytes + op.uploaded_share_bytes;
  }
  return 2 * op.downloaded_share_bytes + (op.whole_file ? op.user_bytes : 0);
}

}  // namespace

std::vector<Metric> EndToEndMetrics(const Run& run, double peak_rss_mb) {
  std::vector<Metric> m;
  m.push_back({"setup_s", Median(run.setup_seconds()), "s",
               "median of " + Count(run.setup_seconds().size(), "set-ups")});
  m.push_back(Throughput(run, "put_MBps", OpKind::kPut));
  m.push_back(Throughput(run, "edit_put_MBps", OpKind::kEditPut));
  m.push_back(Throughput(run, "get_MBps", OpKind::kGet));

  const auto [put_p50, put_tail] = Latency(run, "put", IsPut);
  const auto [get_p50, get_tail] =
      Latency(run, "get", [](const OpRecord& op) { return op.kind == OpKind::kGet; });
  m.push_back(put_p50);
  m.push_back(get_p50);
  // Printed, not in the result: the small_files tails swing 2-3x with host
  // interference from run to run, far past any bound a gate could hold.
  for (Metric tail : {put_tail, get_tail}) {
    tail.in_result = false;
    m.push_back(std::move(tail));
  }

  uint64_t healed = 0;
  uint64_t moved = 0;
  double scrub_ms = 0.0;
  size_t passes = 0;
  for (const OpRecord& op : run.ops()) {
    if (op.measured && op.kind == OpKind::kScrub) {
      healed += op.healed_bytes;
      moved += op.repair_bytes_moved;
      scrub_ms += op.ms();
      ++passes;
    }
  }
  m.push_back({"repair_MBps", MBps(healed, scrub_ms / 1e3), "MB/s",
               Count(passes, "scrub passes") + ", " + std::to_string(healed) +
                   " share bytes healed"});
  m.push_back({"repair_bytes_per_healed_byte",
               Ratio(static_cast<double>(moved), static_cast<double>(healed)), "ratio",
               std::to_string(moved) + " bytes moved"});
  m.push_back({"stored_bytes_per_user_byte",
               Ratio(static_cast<double>(run.stored().stored_bytes),
                     static_cast<double>(run.stored().user_bytes)),
               "ratio",
               std::to_string(run.stored().stored_bytes) + " stored / " +
                   std::to_string(run.stored().user_bytes) + " user bytes"});
  m.push_back({"peak_rss_MB", peak_rss_mb, "MB", "VmHWM"});
  return m;
}

std::vector<Metric> PerLayerMetrics(Run& run) {
  std::vector<Metric> m;
  const std::vector<Span> spans = run.log().Snapshot();
  std::map<uint64_t, std::vector<const Span*>> by_op;
  for (const Span& s : spans) {
    by_op[s.parent].push_back(&s);
  }

  // --- cloud: the TracingConnector spans of every traced call.
  size_t traced = 0;
  size_t traced_gets = 0;
  std::map<SpanKind, size_t> calls;
  uint64_t failed_calls = 0;
  uint64_t bytes_up = 0;
  uint64_t bytes_down = 0;
  uint64_t put_bytes = 0;
  uint64_t get_bytes = 0;
  uint64_t listed_in_gets = 0;
  double busy_total = 0.0;
  std::vector<double> call_ms;
  std::map<uint64_t, double> self_of;  // op id -> wall minus cloud busy ms
  std::map<uint64_t, double> select_of;
  for (const OpRecord& op : run.ops()) {
    if (!op.traced) {
      continue;
    }
    ++traced;
    std::vector<Interval> intervals;
    auto it = by_op.find(op.id);
    if (it != by_op.end()) {
      for (const Span* s : it->second) {
        if (s->kind == SpanKind::kSelect) {
          select_of[op.id] += s->end_ms - s->start_ms;
          continue;
        }
        ++calls[s->kind];
        failed_calls += s->ok ? 0 : 1;
        call_ms.push_back(s->end_ms - s->start_ms);
        intervals.push_back({s->start_ms, s->end_ms});
        if (s->kind == SpanKind::kUpload && IsPut(op)) {
          bytes_up += s->bytes;
        }
        if (s->kind == SpanKind::kDownload && op.kind == OpKind::kGet) {
          bytes_down += s->bytes;
        }
        if (s->kind == SpanKind::kList && op.kind == OpKind::kGet) {
          listed_in_gets += s->listed;
        }
      }
    }
    const Interval window{op.start_ms, op.end_ms};
    busy_total += CoveredLength(window, intervals);
    self_of[op.id] = SelfTime(window, intervals);
    if (IsPut(op)) {
      put_bytes += op.user_bytes;
    } else if (op.kind == OpKind::kGet) {
      get_bytes += op.user_bytes;
      ++traced_gets;
    }
  }
  const double ops = static_cast<double>(traced);
  m.push_back({"cloud.upload_calls_per_op", Ratio(calls[SpanKind::kUpload], ops), "count",
               Count(traced, "traced calls")});
  m.push_back({"cloud.download_calls_per_op", Ratio(calls[SpanKind::kDownload], ops), "count", ""});
  m.push_back({"cloud.list_calls_per_op", Ratio(calls[SpanKind::kList], ops), "count", ""});
  m.push_back({"cloud.failed_calls", static_cast<double>(failed_calls), "count", ""});
  m.push_back({"cloud.bytes_up_per_user_byte",
               Ratio(static_cast<double>(bytes_up), static_cast<double>(put_bytes)), "ratio",
               "uploads of Puts / bytes Put"});
  m.push_back({"cloud.bytes_down_per_user_byte",
               Ratio(static_cast<double>(bytes_down), static_cast<double>(get_bytes)), "ratio",
               "downloads of reads / bytes read"});
  m.push_back({"cloud.busy_ms_per_op", Ratio(busy_total, ops), "ms", ""});
  const auto [call_p50, call_tail] = Percentiles("cloud.call", call_ms);
  m.push_back(call_p50);
  m.push_back(call_tail);
  m.push_back({"cloud.metadata_objects_listed_per_get",
               Ratio(static_cast<double>(listed_in_gets), static_cast<double>(traced_gets)),
               "count", Count(traced_gets, "traced reads")});

  // --- core: self time (wall minus cloud busy) and the program's own spans.
  const Replay replay = RunReplays(run);
  double put_self = 0.0;
  double get_self = 0.0;
  size_t puts = 0;
  size_t gets = 0;
  double self_total = 0.0;
  double explained = 0.0;
  double put_hash_ms = 0.0;
  double get_hash_ms = 0.0;
  double select_total = 0.0;
  size_t selects = 0;
  std::map<std::string, std::pair<double, size_t>> stages;
  double covered = 0.0;
  double trace_total = 0.0;
  uint64_t chunks_total = 0;
  uint64_t chunks_dedup = 0;
  const double t = run.replay_params.t;
  for (const OpRecord& op : run.ops()) {
    if (!op.traced) {
      continue;
    }
    for (const auto& [name, ms] : op.stage_ms) {
      stages[name].first += ms;
      ++stages[name].second;
    }
    covered += op.trace_covered_ms;
    trace_total += op.trace_total_ms;
    if (op.kind == OpKind::kScrub) {
      continue;
    }
    const double self = self_of[op.id];
    const double hash_ms = MsAt(HashedBytes(op), replay.sha1_MBps);
    const auto selected = select_of.find(op.id);
    const double select_ms = selected != select_of.end() ? selected->second : 0.0;
    double layer_ms = hash_ms + select_ms;
    if (IsPut(op)) {
      put_self += self;
      ++puts;
      put_hash_ms += hash_ms;
      chunks_total += op.total_chunks;
      chunks_dedup += op.dedup_chunks;
      const uint64_t encoded =
          op.n > 0 ? static_cast<uint64_t>(op.uploaded_share_bytes * t / op.n) : 0;
      layer_ms += MsAt(op.user_bytes, replay.split_MBps) + MsAt(encoded, replay.encode_MBps);
    } else {
      get_self += self;
      ++gets;
      get_hash_ms += hash_ms;
      layer_ms += MsAt(op.downloaded_share_bytes, replay.decode_MBps);
    }
    if (selected != select_of.end()) {
      select_total += select_ms;
      ++selects;
    }
    self_total += self;
    explained += layer_ms;
  }
  m.push_back({"core.put_self_ms", Ratio(put_self, static_cast<double>(puts)), "ms",
               Count(puts, "traced Puts")});
  m.push_back({"core.get_self_ms", Ratio(get_self, static_cast<double>(gets)), "ms",
               Count(gets, "traced reads")});
  m.push_back({"core.unattributed_share", 1.0 - Ratio(explained, self_total), "ratio",
               "negative when replayed layers overlap on pool threads"});
  for (const char* stage : {"chunking", "encode", "place", "upload", "pipeline_drain",
                            "publish_meta", "sync_meta", "select", "gather", "assemble",
                            "republish_meta"}) {
    const auto& [ms, n] = stages[stage];
    m.push_back({std::string("core.stage.") + stage + "_ms",
                 Ratio(ms, static_cast<double>(n)), "ms",
                 "per call that has it, " + Count(n, "calls")});
  }
  m.push_back({"core.span_coverage", Ratio(covered, trace_total), "ratio",
               "span union / call wall time"});
  const cyrus::ChunkCache::Stats& cache = run.cache_delta;
  m.push_back({"core.chunk_cache.hit_ratio",
               Ratio(static_cast<double>(cache.hits), static_cast<double>(cache.hits + cache.misses)),
               "ratio", std::to_string(cache.hits) + " hits"});
  m.push_back({"core.chunk_cache.evictions", static_cast<double>(cache.evictions), "count", ""});
  const auto& ra = run.readahead_delta;
  m.push_back({"core.readahead.useful_ratio",
               Ratio(static_cast<double>(ra.completed), static_cast<double>(ra.issued)), "ratio",
               std::to_string(ra.issued) + " issued"});
  m.push_back({"core.readahead.cancelled", static_cast<double>(ra.cancelled), "count", ""});
  m.push_back({"core.dedup_chunk_ratio",
               Ratio(static_cast<double>(chunks_dedup), static_cast<double>(chunks_total)),
               "ratio", std::to_string(chunks_total) + " chunks Put"});

  // --- chunker, crypto, rs, opt: replays and in-place selector timing.
  m.push_back({"chunker.split_MBps", replay.split_MBps, "MB/s", "Split replayed"});
  m.push_back({"chunker.chunks_per_MB", replay.chunks_per_MB, "count", ""});
  m.push_back({"crypto.sha1_MBps", replay.sha1_MBps, "MB/s", "Sha1::Hash per chunk"});
  m.push_back({"crypto.put_hash_ms", Ratio(put_hash_ms, static_cast<double>(puts)), "ms",
               "bytes hashed by design / sha1_MBps"});
  m.push_back({"crypto.get_hash_ms", Ratio(get_hash_ms, static_cast<double>(gets)), "ms", ""});
  m.push_back({"rs.encode_MBps", replay.encode_MBps, "MB/s", "plaintext bytes"});
  m.push_back({"rs.decode_MBps", replay.decode_MBps, "MB/s", "plaintext bytes"});
  m.push_back({"opt.select_ms", Ratio(select_total, static_cast<double>(selects)), "ms",
               Count(selects, "reads that selected")});
  double modeled = 0.0;
  size_t reads = 0;
  for (const OpRecord& op : run.ops()) {
    if (op.traced && op.kind == OpKind::kGet && op.ok) {
      modeled += op.modeled_s;
      ++reads;
    }
  }
  m.push_back({"opt.modeled_get_s", Ratio(modeled, static_cast<double>(reads)), "s",
               "mean of " + Count(reads, "traced reads")});

  // --- meta and repair.
  m.push_back({"meta.serialize_us", run.meta_serialize_us, "us", "FileVersion::Serialize"});
  m.push_back({"meta.deserialize_us", run.meta_deserialize_us, "us", ""});
  m.push_back({"meta.objects_per_csp", run.meta_objects_per_csp, "count", ""});
  uint64_t repaired = 0;
  uint64_t rebuilt = 0;
  uint64_t moved = 0;
  size_t passes = 0;
  double repair_self = 0.0;
  for (const OpRecord& op : run.ops()) {
    if (op.traced && op.kind == OpKind::kScrub) {
      repaired += op.chunks_repaired;
      rebuilt += op.shares_rebuilt;
      moved += op.repair_bytes_moved;
      repair_self += self_of[op.id];
      ++passes;
    }
  }
  m.push_back({"repair.chunks_repaired", static_cast<double>(repaired), "count", ""});
  m.push_back({"repair.shares_rebuilt", static_cast<double>(rebuilt), "count", ""});
  m.push_back({"repair.bytes_moved", static_cast<double>(moved), "count", "bytes"});
  m.push_back({"repair.passes", static_cast<double>(passes), "count", ""});
  m.push_back({"repair.self_ms", Ratio(repair_self, static_cast<double>(passes)), "ms",
               "per pass"});

  // --- obs: traced vs untraced calls of the closed loop, per call kind.
  double overhead_sum = 0.0;
  size_t kinds = 0;
  for (OpKind kind : {OpKind::kPut, OpKind::kEditPut, OpKind::kGet}) {
    double on_ms = 0.0;
    double off_ms = 0.0;
    size_t on = 0;
    size_t off = 0;
    for (const OpRecord& op : run.ops()) {
      if (op.timed_phase && op.kind == kind) {
        (op.traced ? on_ms : off_ms) += op.ms();
        ++(op.traced ? on : off);
      }
    }
    if (on > 0 && off > 0) {
      overhead_sum += 100.0 * ((on_ms / on) / (off_ms / off) - 1.0);
      ++kinds;
    }
  }
  m.push_back({"obs.trace_overhead_pct", Ratio(overhead_sum, static_cast<double>(kinds)), "%",
               "mean traced / untraced call time - 1, over " + Count(kinds, "call kinds")});

  if (!run.options().trace_out.empty()) {
    std::vector<Span> all = spans;
    for (const OpRecord& op : run.ops()) {
      if (op.traced) {
        Span span;
        span.kind = SpanKind::kOp;
        span.name = OpKindName(op.kind);
        span.op = op.id;
        span.start_ms = op.start_ms;
        span.end_ms = op.end_ms;
        span.bytes = op.user_bytes;
        span.ok = op.ok;
        all.push_back(std::move(span));
      }
    }
    if (!WriteSpansTsv(run.options().trace_out, all)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", run.options().trace_out.c_str());
    }
  }
  return m;
}

void PrintReport(const Run& run, const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("%-40s %14.6g %-6s %s%s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.c_str(),
                metric.in_result ? "" : " (not gated)");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              run.correct() ? "true" : "false",
              static_cast<unsigned long long>(run.attempted()),
              static_cast<unsigned long long>(run.failed()));
  const char* separator = "";
  for (const Metric& metric : metrics) {
    if (!metric.in_result) {
      continue;
    }
    double v = metric.value;
    if (!std::isfinite(v)) {
      v = v > 0 ? DBL_MAX : (v < 0 ? -DBL_MAX : 0.0);
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", separator,
                metric.name.c_str(), v, metric.unit.c_str());
    separator = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
