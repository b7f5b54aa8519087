// Tests for the aligned reusable buffer pool (src/util/buffer_pool.h):
// alignment and capacity contracts, reuse-after-release, concurrent
// checkout from thread-pool workers (selected into the TSan tier), and the
// end-to-end oracle that every share object a pooled Put uploads is the
// codec's own encoding of its chunk.
#include "src/util/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cloud/simulated_csp.h"
#include "src/core/client.h"
#include "src/crypto/naming.h"
#include "src/rs/secret_sharing.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace cyrus {
namespace {

TEST(BufferPoolTest, BuffersAreAlignedAndRoundedToGranularity) {
  BufferPool pool;
  for (const size_t want : {size_t{1}, size_t{31}, size_t{4096}, size_t{4097},
                            size_t{1 << 20}}) {
    PooledBuffer buffer = pool.Acquire(want);
    ASSERT_TRUE(buffer);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.data()) % 32, 0u)
        << "capacity " << buffer.capacity();
    EXPECT_GE(buffer.capacity(), want);
    EXPECT_EQ(buffer.capacity() % 4096, 0u);
    EXPECT_EQ(buffer.span(want).size(), want);
  }
}

TEST(BufferPoolTest, CustomAlignmentIsHonored) {
  BufferPool::Options options;
  options.alignment = 64;
  BufferPool pool(options);
  PooledBuffer buffer = pool.Acquire(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.data()) % 64, 0u);
}

TEST(BufferPoolTest, ReleasedBufferIsReusedByTheNextAcquire) {
  BufferPool pool;
  uint8_t* first = nullptr;
  {
    PooledBuffer buffer = pool.Acquire(1000);
    first = buffer.data();
  }  // released back to the pool here
  PooledBuffer again = pool.Acquire(1000);
  EXPECT_EQ(again.data(), first);
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.outstanding, 1u);
}

TEST(BufferPoolTest, TightestFitWinsAndLargeBuffersStayParked) {
  BufferPool pool;
  uint8_t* small = nullptr;
  uint8_t* large = nullptr;
  {
    PooledBuffer a = pool.Acquire(4096);
    PooledBuffer b = pool.Acquire(64 * 1024);
    small = a.data();
    large = b.data();
  }
  // A small request must take the 4 KB buffer, not burn the 64 KB one.
  PooledBuffer c = pool.Acquire(100);
  EXPECT_EQ(c.data(), small);
  PooledBuffer d = pool.Acquire(32 * 1024);
  EXPECT_EQ(d.data(), large);
}

TEST(BufferPoolTest, MoveTransfersOwnershipWithoutDoubleRelease) {
  BufferPool pool;
  PooledBuffer a = pool.Acquire(100);
  uint8_t* data = a.data();
  PooledBuffer b = std::move(a);
  EXPECT_EQ(b.data(), data);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): asserting moved-from state
  b.Release();
  EXPECT_EQ(pool.stats().outstanding, 0u);
  EXPECT_EQ(pool.stats().free_buffers, 1u);
}

TEST(BufferPoolTest, FreeListIsBoundedByMaxFreeBuffers) {
  BufferPool::Options options;
  options.max_free_buffers = 2;
  BufferPool pool(options);
  {
    std::vector<PooledBuffer> buffers;
    for (int i = 0; i < 5; ++i) {
      buffers.push_back(pool.Acquire(4096));
    }
  }  // all five released; only two may be retained
  EXPECT_EQ(pool.stats().free_buffers, 2u);
}

// Concurrent checkout/release from thread-pool workers; runs under the
// --tsan tier to prove the free-list locking.
TEST(BufferPoolTest, ConcurrentCheckoutFromThreadPoolWorkers) {
  BufferPool pool;
  ThreadPool workers(4);
  std::atomic<uint64_t> touched{0};
  ThreadPool::TaskGroup group;
  for (int task = 0; task < 32; ++task) {
    workers.Submit(group, [&pool, &touched, task] {
      Rng rng(0xC0FFEE + static_cast<uint64_t>(task));
      for (int i = 0; i < 50; ++i) {
        const size_t want = 1 + rng.NextBelow(32 * 1024);
        PooledBuffer buffer = pool.Acquire(want);
        MutableByteSpan span = buffer.span(want);
        // Touch first and last byte so TSan sees the memory handoff.
        span.front() = static_cast<uint8_t>(task);
        span.back() = static_cast<uint8_t>(i);
        touched.fetch_add(span.front() + span.back(),
                          std::memory_order_relaxed);
      }
    });
  }
  workers.WaitGroup(group);
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.outstanding, 0u);
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

// --- End-to-end oracle: a pooled Put uploads exactly the codec's shares ---

struct MiniCloud {
  std::vector<std::shared_ptr<SimulatedCsp>> csps;
  std::unique_ptr<CyrusClient> client;
};

MiniCloud MakeCloud() {
  MiniCloud cloud;
  CyrusConfig config;
  config.client_id = "pool-device";
  config.key_string = "pool regression key";
  config.t = 2;
  config.meta_t = 2;
  config.epsilon = 1e-4;
  config.chunker = ChunkerOptions::ForTesting();
  config.cluster_aware = false;
  auto client = CyrusClient::Create(std::move(config));
  EXPECT_TRUE(client.ok()) << client.status();
  cloud.client = std::move(client).value();
  for (int i = 0; i < 5; ++i) {
    SimulatedCspOptions o;
    o.id = StrCat("pool-csp", i);
    cloud.csps.push_back(std::make_shared<SimulatedCsp>(o));
    CspProfile profile;
    profile.rtt_ms = 50 + 10.0 * i;
    profile.download_bytes_per_sec = 8e6;
    profile.upload_bytes_per_sec = 4e6;
    auto added =
        cloud.client->AddCsp(cloud.csps.back(), profile, Credentials{"token"});
    EXPECT_TRUE(added.ok()) << added.status();
  }
  return cloud;
}

// Every object stored across the cloud, keyed "<csp-id>/<object-name>".
std::map<std::string, Bytes> DumpObjects(MiniCloud& cloud) {
  std::map<std::string, Bytes> objects;
  for (const auto& csp : cloud.csps) {
    auto listing = csp->List("");
    EXPECT_TRUE(listing.ok()) << listing.status();
    for (const ObjectInfo& info : *listing) {
      auto data = csp->Download(info.name);
      EXPECT_TRUE(data.ok()) << data.status();
      objects.emplace(StrCat(csp->id(), "/", info.name), *std::move(data));
    }
  }
  return objects;
}

TEST(BufferPoolTest, PooledPutUploadsTheCodecsShares) {
  Rng rng(0x900DBEEF);
  Bytes content(100 * 1024);
  for (auto& b : content) {
    b = static_cast<uint8_t>(rng.Next());
  }
  MiniCloud cloud = MakeCloud();
  auto put = cloud.client->Put("regression.bin", content);
  ASSERT_TRUE(put.ok()) << put.status();
  auto versions = cloud.client->Versions("regression.bin");
  ASSERT_TRUE(versions.ok()) << versions.status();
  ASSERT_FALSE(versions->empty());
  const FileVersion& version = *versions->front();
  ASSERT_GT(version.chunks.size(), 1u);

  // The oracle: share object i of a chunk is row i of the allocating
  // Encode() of that chunk's plaintext, under the client's key and the
  // Put's n - independent of the pooled EncodeInto path Put runs.
  const CyrusConfig& config = cloud.client->config();
  auto codec = SecretSharingCodec::Create(config.key_string, config.t, put->n);
  ASSERT_TRUE(codec.ok()) << codec.status();
  std::map<std::string, Bytes> expected;
  for (const ChunkRecord& chunk : version.chunks) {
    auto shares = codec->Encode(ByteSpan(content.data() + chunk.offset, chunk.size));
    ASSERT_TRUE(shares.ok()) << shares.status();
    for (Share& share : *shares) {
      expected[ShareName(chunk.id, share.index, config.t)] = std::move(share.data);
    }
  }

  size_t checked = 0;
  for (const auto& [key, bytes] : DumpObjects(cloud)) {
    const std::string object = key.substr(key.find('/') + 1);
    if (object.rfind("meta-", 0) == 0) {
      continue;  // the version's metadata shares
    }
    auto it = expected.find(object);
    ASSERT_NE(it, expected.end()) << key << " is no share of the file's chunks";
    EXPECT_EQ(bytes, it->second) << key;
    ++checked;
  }
  // Every chunk's n shares were placed (no CSP failed).
  EXPECT_EQ(checked, version.chunks.size() * put->n);

  // And the file round-trips.
  auto get = cloud.client->Get("regression.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

}  // namespace
}  // namespace cyrus
