// Tests of the one chunk-read path (src/core/chunk_reader.h).
//
// A table of share-layout faults - clean, one digest-bad share, one outage,
// a legacy digestless record with one rotted share, fewer than t clean
// shares - is read with healing on and off, screening digests before or
// only after a failed decode, checking the reader's
// contract: any t clean shares reconstruct the chunk (given a digest or
// healing to find the bad ones), a failure is typed kIntegrity or kDataLoss
// and attributed to the CSP at fault, and a read without healing never
// uploads. The last test drives Get, readahead and ScrubOnce through one
// client's shared reader at once (the TSan tier runs it).
#include "src/core/chunk_reader.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cloud/fault_injection.h"
#include "src/cloud/simulated_csp.h"
#include "src/core/client.h"
#include "src/crypto/naming.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

constexpr int kNumCsps = 5;
constexpr uint32_t kT = 2;
constexpr char kKey[] = "chunk reader test key";

Bytes RandomContent(size_t size, uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

enum class Fault { kNone, kRot, kOutage };

struct ReadCase {
  const char* name;
  std::vector<Fault> faults;  // per location, in read order
  bool digests = true;        // false: a legacy record without digests
  // Expected outcome with healing on / off; kOk = the chunk reconstructs.
  StatusCode heal_on;
  StatusCode heal_off;
};

const ReadCase kCases[] = {
    {"clean", {}, true, StatusCode::kOk, StatusCode::kOk},
    {"one digest-bad share", {Fault::kRot}, true, StatusCode::kOk, StatusCode::kOk},
    {"one outage", {Fault::kOutage}, true, StatusCode::kOk, StatusCode::kOk},
    // Nothing screens the rotted share out before decode: only the
    // error-correcting fallback (a healing read) can recover the chunk.
    {"legacy record, one rotted share", {Fault::kRot}, false, StatusCode::kOk,
     StatusCode::kDataLoss},
    {"fewer than t clean: digest rejects",
     {Fault::kRot, Fault::kRot, Fault::kRot, Fault::kRot},
     true,
     StatusCode::kIntegrity,
     StatusCode::kIntegrity},
    {"fewer than t clean: outages",
     {Fault::kOutage, Fault::kOutage, Fault::kOutage, Fault::kOutage},
     true,
     StatusCode::kDataLoss,
     StatusCode::kDataLoss},
};

// One chunk dispersed over kNumCsps fault-injecting stores, share i on CSP
// i, plus a reader over them.
struct ReadBed {
  std::vector<std::shared_ptr<FaultInjectingConnector>> faults;
  CspRegistry registry;
  BufferPool buffers;
  ThreadPool pool{2};
  std::unique_ptr<ChunkReader> reader;
  ChunkRecord chunk;
  Bytes content;
  std::vector<ChunkShare> locations;
  std::vector<Bytes> clean_shares;
};

std::unique_ptr<ReadBed> MakeBed(const ReadCase& c, uint64_t seed) {
  auto bed = std::make_unique<ReadBed>();
  bed->content = RandomContent(3000, seed);
  bed->chunk.id = Sha1::Hash(bed->content);
  bed->chunk.size = bed->content.size();
  bed->chunk.t = kT;
  bed->chunk.n = kNumCsps;
  auto codec = SecretSharingCodec::Create(kKey, kT, kNumCsps);
  EXPECT_TRUE(codec.ok()) << codec.status();
  auto shares = codec->Encode(bed->content);
  EXPECT_TRUE(shares.ok()) << shares.status();
  for (int i = 0; i < kNumCsps; ++i) {
    SimulatedCspOptions o;
    o.id = StrCat("reader-csp", i);
    FaultInjectionOptions f;
    f.seed = seed + static_cast<uint64_t>(i);
    bed->faults.push_back(std::make_shared<FaultInjectingConnector>(
        std::make_shared<SimulatedCsp>(o), f));
    EXPECT_TRUE(bed->faults.back()->Authenticate(Credentials{"token"}).ok());
    const int csp = bed->registry.Add(bed->faults.back(), CspProfile{});
    const Bytes& data = (*shares)[i].data;
    const std::string object = ShareName(bed->chunk.id, i, kT);
    EXPECT_TRUE(bed->faults.back()->Upload(object, data).ok());
    bed->clean_shares.push_back(data);
    ChunkShare loc{static_cast<uint32_t>(i), csp};
    if (c.digests) {
      loc.digest = Sha1::Hash(data);
    }
    bed->locations.push_back(loc);
    const Fault fault =
        static_cast<size_t>(i) < c.faults.size() ? c.faults[i] : Fault::kNone;
    if (fault == Fault::kRot) {
      EXPECT_TRUE(bed->faults.back()->RotStoredObject(object, 11).ok());
    } else if (fault == Fault::kOutage) {
      bed->faults.back()->set_permanently_down(true);
    }
  }
  ChunkReaderContext context;
  context.registry = &bed->registry;
  context.buffers = &bed->buffers;
  context.pool = &bed->pool;
  context.key_string = kKey;
  bed->reader = std::make_unique<ChunkReader>(std::move(context));
  return bed;
}

TEST(ChunkReaderTest, FaultTable) {
  uint64_t seed = 0xC4EAD000;
  for (const ReadCase& c : kCases) {
    for (const int mode : {0, 1, 2, 3}) {
      const bool heal = mode < 2;
      const bool screen = mode % 2 == 0;
      SCOPED_TRACE(StrCat(c.name, heal ? " / heal on" : " / heal off",
                          screen ? " / screened" : " / checked after decode"));
      std::unique_ptr<ReadBed> bed = MakeBed(c, ++seed);
      std::set<int> transfer_blamed;
      std::set<int> integrity_blamed;
      ChunkReadPolicy policy;
      policy.retry.max_attempts = 2;
      policy.heal = heal;
      policy.screen_before_decode = screen;
      policy.on_transfer_failure = [&](int csp, const Status&) {
        transfer_blamed.insert(csp);
      };
      policy.on_integrity_failure = [&](int csp) { integrity_blamed.insert(csp); };

      ChunkRead read = bed->reader->FetchAuthenticated(bed->chunk, bed->locations, kT,
                                                       policy);
      Bytes out(bed->chunk.size);
      const Status status = bed->reader->Reconstruct(bed->chunk, read, out, policy);
      const StatusCode want = heal ? c.heal_on : c.heal_off;
      EXPECT_EQ(status.code(), want) << status;

      // Every CSP the case broke and the read touched is named by a hook;
      // no healthy CSP ever is.
      std::set<int> broken_rot;
      std::set<int> broken_down;
      for (size_t i = 0; i < c.faults.size(); ++i) {
        std::set<int>& broken = c.faults[i] == Fault::kRot ? broken_rot : broken_down;
        broken.insert(static_cast<int>(i));
      }
      for (int csp : transfer_blamed) {
        EXPECT_EQ(broken_down.count(csp), 1u) << "blamed healthy csp " << csp;
      }
      for (int csp : integrity_blamed) {
        EXPECT_TRUE(c.digests);
        EXPECT_EQ(broken_rot.count(csp), 1u) << "blamed clean csp " << csp;
      }
      if (status.ok()) {
        // t clean shares (screened by digest, or found by healing)
        // reconstruct the chunk.
        EXPECT_EQ(out, bed->content);
      } else if (want == StatusCode::kIntegrity) {
        EXPECT_EQ(integrity_blamed, broken_rot);
      } else {
        EXPECT_EQ(transfer_blamed, broken_down);
      }
      if (c.digests && !broken_rot.empty()) {
        EXPECT_FALSE(integrity_blamed.empty());
        EXPECT_EQ(read.rejected.size(), integrity_blamed.size());
      }

      if (!heal) {
        // A read without healing never uploads: the rot is still there.
        EXPECT_EQ(read.report.CountOf(TransferKind::kPut), 0u);
        EXPECT_EQ(read.healed, 0u);
        for (int csp : broken_rot) {
          auto stored = bed->faults[csp]->inner().Download(
              ShareName(bed->chunk.id, static_cast<uint32_t>(csp), kT));
          ASSERT_TRUE(stored.ok()) << stored.status();
          EXPECT_NE(*stored, bed->clean_shares[csp]);
        }
      } else if (status.ok()) {
        // Healing overwrote every share it found bad, and a legacy record
        // came back with the digest of every location.
        EXPECT_EQ(read.healed, read.rejected.size() + read.corrupt.size());
        for (const ChunkShare& bad : read.corrupt) {
          EXPECT_EQ(broken_rot.count(bad.csp), 1u);
        }
        for (int csp : broken_rot) {
          auto stored = bed->faults[csp]->inner().Download(
              ShareName(bed->chunk.id, static_cast<uint32_t>(csp), kT));
          ASSERT_TRUE(stored.ok()) << stored.status();
          if (read.healed > 0) {
            EXPECT_EQ(*stored, bed->clean_shares[csp]);
          }
        }
        if (!c.digests) {
          ASSERT_EQ(read.digests.size(), static_cast<size_t>(kNumCsps));
          for (const ShareDigest& sd : read.digests) {
            EXPECT_EQ(sd.digest, Sha1::Hash(bed->clean_shares[sd.share_index]));
          }
        }
      }
    }
  }
}

// A read wanting every share (the scrub's) downloads each active location
// exactly once and checks every digest.
TEST(ChunkReaderTest, AllSharesReadChecksEveryLocation) {
  const ReadCase c{"scrub", {Fault::kNone, Fault::kRot}, true, StatusCode::kOk,
                   StatusCode::kOk};
  std::unique_ptr<ReadBed> bed = MakeBed(c, 0xC4EAD100);
  ChunkReadPolicy policy;
  ChunkRead read = bed->reader->FetchAuthenticated(bed->chunk, bed->locations,
                                                   ChunkReader::kAllShares, policy);
  EXPECT_EQ(read.report.CountOf(TransferKind::kGet), static_cast<size_t>(kNumCsps));
  EXPECT_EQ(read.shares.size(), static_cast<size_t>(kNumCsps - 1));
  ASSERT_EQ(read.rejected.size(), 1u);
  EXPECT_EQ(read.rejected.front().csp, 1);
  EXPECT_TRUE(read.untried.empty());
}

// Get, readahead and ScrubOnce read through one client's reader at once:
// sequential range reads leave prefetches running on the pool while the
// driver scrubs (repairing around a dead CSP and healing rot) and then
// reads the whole file.
TEST(ChunkReaderTest, ConcurrentGetReadaheadAndScrubOnOneClient) {
  CyrusConfig config;
  config.client_id = "reader-device";
  config.key_string = "concurrent reader key";
  config.t = 2;
  config.cluster_aware = false;
  config.default_failure_prob = 0.5;  // n = every CSP
  config.epsilon = 1e-9;
  config.chunker = ChunkerOptions::ForTesting();
  config.readahead_chunks = 6;
  config.repair.integrity_samples_per_pass = 64;
  auto client = CyrusClient::Create(std::move(config));
  ASSERT_TRUE(client.ok()) << client.status();
  std::vector<std::shared_ptr<FaultInjectingConnector>> faults;
  std::vector<std::shared_ptr<SimulatedCsp>> stores;
  for (int i = 0; i < 6; ++i) {
    SimulatedCspOptions o;
    o.id = StrCat("concurrent-csp", i);
    stores.push_back(std::make_shared<SimulatedCsp>(o));
    FaultInjectionOptions f;
    f.seed = 0xC4EAD200 + static_cast<uint64_t>(i);
    faults.push_back(std::make_shared<FaultInjectingConnector>(stores.back(), f));
    ASSERT_TRUE(
        (*client)->AddCsp(faults.back(), CspProfile{}, Credentials{"token"}).ok());
  }
  const Bytes content = RandomContent(96 * 1024, 0xC4EAD201);
  ASSERT_TRUE((*client)->Put("movie.bin", content).ok());

  // Rot one share of every chunk on CSP 1, then take CSP 5 down.
  for (const Sha1Digest& id : (*client)->chunk_table().AllChunkIds()) {
    for (const ChunkShare& share : (*client)->chunk_table().Find(id)->shares) {
      if (share.csp == 1) {
        const std::string object = ShareName(id, share.share_index, 2);
        ASSERT_TRUE(faults[1]->RotStoredObject(object, 3).ok());
      }
    }
  }
  stores[5]->set_available(false);

  constexpr uint64_t kStep = 4 * 1024;
  for (uint64_t offset = 0; offset < content.size(); offset += 4 * kStep) {
    for (uint64_t at = offset; at < offset + 4 * kStep; at += kStep) {
      auto range = (*client)->GetRange("movie.bin", at, kStep);
      ASSERT_TRUE(range.ok()) << range.status();
      EXPECT_TRUE(std::equal(range->content.begin(), range->content.end(),
                             content.begin() + static_cast<ptrdiff_t>(at)));
    }
    // Prefetches are still in flight here.
    auto scrub = (*client)->ScrubOnce();
    ASSERT_TRUE(scrub.ok()) << scrub.status();
    auto whole = (*client)->Get("movie.bin");
    ASSERT_TRUE(whole.ok()) << whole.status();
    EXPECT_EQ(whole->content, content);
  }
  (*client)->WaitForReadahead();
  auto last = (*client)->ScrubOnce();
  ASSERT_TRUE(last.ok()) << last.status();
  for (const ChunkHealth& chunk : (*client)->ScrubScan()) {
    EXPECT_FALSE(chunk.degraded());
  }
}

}  // namespace
}  // namespace cyrus
