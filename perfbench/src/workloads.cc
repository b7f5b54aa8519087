// The three seeded workloads. A run is a series of rounds, at least
// kMinRounds and more while --seconds has not elapsed. Each round sets up a
// fresh client (setup_s is the median over rounds), drives a closed loop
// of a fixed amount of work with one call outstanding, tallies storage,
// and ends with one CSP outage healed by ScrubOnce. Every call's output is
// checked.
//
// The closed loop has a fixed size, not a fixed duration, so a round's
// state at its k-th call does not depend on how fast the machine was; a
// fresh client per round keeps memory bounded by one round.
//
// In a traced run, closed-loop calls alternate between traced and
// untraced so that tracing overhead is measured on the same state;
// set-up and repair calls are all traced.
#include "perfbench/src/workloads.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/zipf.h"

namespace perfbench {

using cyrus::Bytes;

namespace {

constexpr int kMinRounds = 2;

void AddCacheDelta(Run& run, Bed& bed, const cyrus::ChunkCache::Stats& before,
                   const cyrus::CyrusClient::ReadaheadStats& ra_before) {
  const cyrus::ChunkCache::Stats after = bed.client->chunk_cache().stats();
  run.cache_delta.hits += after.hits - before.hits;
  run.cache_delta.misses += after.misses - before.misses;
  run.cache_delta.evictions += after.evictions - before.evictions;
  const cyrus::CyrusClient::ReadaheadStats ra = bed.client->readahead_stats();
  run.readahead_delta.issued += ra.issued - ra_before.issued;
  run.readahead_delta.completed += ra.completed - ra_before.completed;
  run.readahead_delta.cancelled += ra.cancelled - ra_before.cancelled;
}

// Runs rounds of set_up(bed) + closed_loop(bed) + storage tally + repair.
template <typename SetUp, typename ClosedLoop>
void RunRounds(Run& run, const ClientParams& params, SetUp set_up, ClosedLoop closed_loop) {
  run.replay_params = params;
  const double deadline = NowMs() + run.options().seconds * 1e3;
  for (int round = 0; round < kMinRounds || NowMs() < deadline; ++round) {
    const double t0 = NowMs();
    Bed bed = run.MakeBed(params);
    set_up(bed);
    run.setup_seconds().push_back((NowMs() - t0) / 1e3);

    const cyrus::ChunkCache::Stats cache_before = bed.client->chunk_cache().stats();
    const cyrus::CyrusClient::ReadaheadStats ra_before = bed.client->readahead_stats();
    closed_loop(bed);
    bed.client->WaitForReadahead();
    AddCacheDelta(run, bed, cache_before, ra_before);

    run.TallyStorage(bed);
    run.MeasureMetadata(bed);
    run.Repair(bed, static_cast<int>(run.rng().NextBelow(bed.csps.size())));
  }
}

// bulk: (t,n)=(2,4), default 4 MB Rabin chunking, a fresh 64 MB file per
// round: Put, Get, Put again with one small insert, Get.
void RunBulk(Run& run) {
  constexpr size_t kFileBytes = 64u << 20;
  // Several chunks long, so set-up drives every stage of Put and Get once.
  constexpr size_t kWarmBytes = 16u << 20;
  ClientParams params;
  params.t = 2;
  params.n = 4;

  const Bytes warm = RandomBytes(run.rng(), kWarmBytes);
  auto set_up = [&](Bed& bed) {
    run.Put(bed, OpKind::kPut, "bulk/warmup.bin", warm, false, true, false);
    run.Get(bed, "bulk/warmup.bin", warm, false, true, false);
  };
  int round = 0;
  auto closed_loop = [&](Bed& bed) {
    const Bytes original = RandomBytes(run.rng(), kFileBytes);
    const Bytes edited = InsertEdit(run.rng(), original, 1 + run.rng().NextBelow(4096));
    if (round == 0) {
      run.KeepReplaySample(original);
    }
    // Shift the traced/untraced alternation each round, so every kind of
    // call is traced in some rounds and untraced in others.
    auto traced = [&](int step) { return (step + round) % 2 == 0; };
    const std::string name = "bulk/file.bin";
    run.Put(bed, OpKind::kPut, name, original, true, traced(0), true);
    run.Get(bed, name, original, true, traced(1), true);
    run.Put(bed, OpKind::kEditPut, name, edited, true, traced(2), true);
    run.Get(bed, name, edited, true, traced(3), true);
    ++round;
  };
  RunRounds(run, params, set_up, closed_loop);
}

// stream: (t,n)=(3,5), 256 KB average chunks, 64 KB range reads over a
// 128 MB working set (2x the default 64 MB chunk cache).
void RunStream(Run& run) {
  constexpr int kFiles = 4;
  constexpr size_t kFileBytes = 32u << 20;
  constexpr uint64_t kReadBytes = 64u << 10;
  constexpr int kReadsPerRound = 2000;
  constexpr double kSequentialProb = 0.75;
  ClientParams params;
  params.t = 3;
  params.n = 5;
  params.chunker.modulus = 256 * 1024;
  params.chunker.min_chunk_size = 64 * 1024;
  params.chunker.max_chunk_size = 1024 * 1024;

  // Each file is written as a first version and then re-saved with one
  // small insert; reads go to the edited head. The put metrics of this
  // workload come from this population.
  std::vector<Bytes> first(kFiles);
  std::vector<Bytes> head(kFiles);
  std::vector<std::string> names(kFiles);
  for (int f = 0; f < kFiles; ++f) {
    first[f] = RandomBytes(run.rng(), kFileBytes);
    head[f] = InsertEdit(run.rng(), first[f], 1 + run.rng().NextBelow(4096));
    names[f] = "stream/video-" + std::to_string(f) + ".mp4";
  }
  run.KeepReplaySample(first[0]);
  run.KeepReplaySample(first[1]);

  auto set_up = [&](Bed& bed) {
    for (int f = 0; f < kFiles; ++f) {
      run.Put(bed, OpKind::kPut, names[f], first[f], true, true, false);
      run.Put(bed, OpKind::kEditPut, names[f], head[f], true, true, false);
    }
  };
  auto closed_loop = [&](Bed& bed) {
    size_t file = run.rng().NextBelow(kFiles);
    uint64_t offset = run.rng().NextBelow(head[file].size() - kReadBytes + 1);
    for (int i = 0; i < kReadsPerRound; ++i) {
      run.GetRange(bed, names[file], head[file], offset, kReadBytes, true, i % 2 == 0, true);
      if (run.rng().NextBool(kSequentialProb) &&
          offset + 2 * kReadBytes <= head[file].size()) {
        offset += kReadBytes;
      } else {
        file = run.rng().NextBelow(kFiles);
        offset = run.rng().NextBelow(head[file].size() - kReadBytes + 1);
      }
    }
  };
  RunRounds(run, params, set_up, closed_loop);
}

// small_files: (t,n)=(2,4), a fixed namespace of 2,000 files of 4-64 KB
// in 20 directories, each file one chunk.
void RunSmallFiles(Run& run) {
  constexpr size_t kFiles = 2000;
  constexpr size_t kDirs = 20;
  constexpr size_t kMinBytes = 4u << 10;
  constexpr size_t kMaxBytes = 64u << 10;
  constexpr int kCallsPerRound = 1200;
  constexpr double kZipfSkew = 0.99;
  ClientParams params;
  params.t = 2;
  params.n = 4;

  auto dir_of = [&](size_t i) { return "small/d" + std::to_string(i % kDirs) + "/"; };
  auto random_size = [&] { return kMinBytes + run.rng().NextBelow(kMaxBytes - kMinBytes + 1); };
  // Popularity ranks are a seeded permutation of the namespace. File sizes
  // follow rank through a golden-ratio sequence, so the most popular files
  // span the whole 4-64 KB range under every seed; random sizes would let
  // the seed decide whether the hot set is small or large files.
  std::vector<size_t> by_rank(kFiles);
  for (size_t i = 0; i < kFiles; ++i) {
    by_rank[i] = i;
  }
  for (size_t i = kFiles - 1; i > 0; --i) {
    std::swap(by_rank[i], by_rank[run.rng().NextBelow(i + 1)]);
  }
  std::vector<std::string> names(kFiles);
  std::vector<Bytes> initial(kFiles);
  for (size_t rank = 0; rank < kFiles; ++rank) {
    const size_t i = by_rank[rank];
    const double spread = std::fmod(static_cast<double>(rank) * 0.6180339887498949, 1.0);
    names[i] = dir_of(i) + "f" + std::to_string(i) + ".dat";
    initial[i] = RandomBytes(
        run.rng(), kMinBytes + static_cast<size_t>(spread * (kMaxBytes - kMinBytes)));
  }
  for (const Bytes& content : initial) {
    run.KeepReplaySample(content);
  }
  const cyrus::ZipfGenerator zipf(kFiles, kZipfSkew);

  auto set_up = [&](Bed& bed) {
    for (size_t i = 0; i < kFiles; ++i) {
      run.Put(bed, OpKind::kPut, names[i], initial[i], false, true, false);
    }
  };
  auto closed_loop = [&](Bed& bed) {
    std::vector<Bytes> current = initial;
    for (int i = 0; i < kCallsPerRound; ++i) {
      const bool traced = i % 2 == 0;
      const size_t pick = by_rank[zipf.Next(run.rng())];
      const double mix = run.rng().NextDouble();
      if (mix < 0.5) {
        run.Get(bed, names[pick], current[pick], true, traced, true);
      } else if (mix < 0.8) {
        Bytes edited = InsertEdit(run.rng(), current[pick], 1 + run.rng().NextBelow(256));
        if (run.Put(bed, OpKind::kEditPut, names[pick], edited, true, traced, true)) {
          current[pick] = std::move(edited);
        }
      } else if (mix < 0.9) {
        const Bytes fresh = RandomBytes(run.rng(), random_size());
        run.Put(bed, OpKind::kPut, dir_of(i) + "new" + std::to_string(i) + ".dat", fresh,
                true, traced, true);
      } else {
        // Existing content under a new name: dedups through the chunk table.
        run.Put(bed, OpKind::kPut, dir_of(i) + "copy" + std::to_string(i) + ".dat",
                current[pick], true, traced, true);
      }
    }
  };
  RunRounds(run, params, set_up, closed_loop);
}

}  // namespace

bool RunWorkload(Run& run) {
  const std::string& name = run.options().workload;
  if (name == "bulk") {
    RunBulk(run);
  } else if (name == "stream") {
    RunStream(run);
  } else if (name == "small_files") {
    RunSmallFiles(run);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
