// ChunkReader: the one chunk-read path (paper §5.1 and §5.5).
//
// Every read of a chunk - Get/GetRange, readahead, scrub repair and the
// scrub integrity pass - goes through two calls:
//   FetchAuthenticated - downloads shares from the caller's locations, in
//                        the caller's order, and checks each against its
//                        recorded digest before it can reach the decoder
//                        (or, by policy, once a decode fails its id check);
//   Reconstruct        - decodes, checks the chunk id and, when the policy
//                        allows healing, runs the error-correcting decode
//                        (§5.1 footnote 9), overwrites rejected or corrupt
//                        shares in place, and derives the digest set of a
//                        record that lacks one.
// Callers keep only what is theirs: source order, hedging, the budget to
// charge, and what the plaintext is for (lazy migration, rebuild to the
// target n, a cache fill).
//
// A ChunkReader is immutable, so pipeline workers, readahead tasks and the
// scrub driver share one. Policy hooks run on the calling thread.
#ifndef SRC_CORE_CHUNK_READER_H_
#define SRC_CORE_CHUNK_READER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/cloud/registry.h"
#include "src/core/hedged_fetch.h"
#include "src/core/transfer.h"
#include "src/crypto/convergent.h"
#include "src/meta/chunk_table.h"
#include "src/meta/metadata.h"
#include "src/rs/secret_sharing.h"
#include "src/util/buffer_pool.h"
#include "src/util/retry.h"
#include "src/util/thread_pool.h"

namespace cyrus {

struct ChunkReadPolicy {
  RetryOptions retry;  // every download and heal upload
  bool hedge = false;  // first wave through the reader's HedgedFetcher
  // Check each share's digest as it arrives (the default), or only once a
  // decode fails its chunk-id check. A passing check already proves the t
  // shares it decoded, so a reader bound by SHA-1 throughput skips hashing
  // them; when the check fails, the digests still name the bad share to
  // reject and replace, before any error-correcting decode.
  bool screen_before_decode = true;
  // Error-correcting fallback, in-place heal and digest derivation. Off, a
  // failed id check is a plain kDataLoss and nothing is ever uploaded.
  bool heal = false;
  // Bytes moved are deducted here, saturating at zero; nullptr = no budget.
  uint64_t* budget_left = nullptr;
  // A download failing with a provider-indicting status.
  std::function<void(int csp, const Status& status)> on_transfer_failure;
  // A downloaded share whose bytes failed its recorded digest.
  std::function<void(int csp)> on_integrity_failure;
  // A downloaded share admitted for decode (optional).
  std::function<void(int csp)> on_share_ok;
};

struct ChunkRead {
  std::vector<ChunkShare> locations;  // every location the caller passed
  std::vector<Share> shares;          // authenticated, ready to decode
  std::vector<ChunkShare> sources;    // where shares[i] came from
  std::vector<ChunkShare> untried;    // active locations not downloaded
  std::vector<ChunkShare> rejected;   // failed their digest before decode
  // Shares Reconstruct found corrupt with no digest to screen them first.
  // They do not reach on_integrity_failure: callers attribute this
  // post-decode evidence as they see fit.
  std::vector<ChunkShare> corrupt;
  std::vector<ShareDigest> digests;  // derived set (healing reads only)
  std::optional<SecretSharingCodec> codec;  // Reconstruct's decoder
  size_t hedged = 0;         // hedged downloads that delivered a share
  size_t healed = 0;         // shares overwritten in place
  bool corrected = false;    // the error-correcting decode ran
  uint64_t bytes_moved = 0;  // share bytes downloaded and uploaded
  TransferReport report;
};

// What the reader borrows; the owning client outlives it.
struct ChunkReaderContext {
  const CspRegistry* registry = nullptr;
  BufferPool* buffers = nullptr;     // heal uploads are encoded here
  ThreadPool* pool = nullptr;        // first wave; nullptr = in caller
  HedgedFetcher* fetcher = nullptr;  // nullptr = never hedge
  std::string key_string;            // decode key of user-keyed chunks
  const ConvergentKeyDeriver* deriver = nullptr;  // convergent chunks
  // Off, digests are neither checked nor derived (the pre-digest client).
  bool verify_share_digests = true;
};

class ChunkReader {
 public:
  // `wanted` for a read of every active location (scrub).
  static constexpr size_t kAllShares = std::numeric_limits<size_t>::max();

  explicit ChunkReader(ChunkReaderContext context);

  // Downloads shares from the active `locations`, in order, until `wanted`
  // were admitted or every one was tried: the first `wanted` concurrently,
  // then one at a time to top up failures and digest rejects.
  ChunkRead FetchAuthenticated(const ChunkRecord& chunk,
                               std::vector<ChunkShare> locations, size_t wanted,
                               const ChunkReadPolicy& policy) const;

  // Decodes `read` into `dst` (chunk.size bytes) and checks the chunk id;
  // unscreened shares failing it are then screened and replaced. Too few
  // shares is kIntegrity when digest rejects caused it, kDataLoss
  // otherwise; a failed id check is kDataLoss without healing, kIntegrity
  // when error correction cannot recover the chunk either.
  Status Reconstruct(const ChunkRecord& chunk, ChunkRead& read, MutableByteSpan dst,
                     const ChunkReadPolicy& policy) const;

 private:
  struct Fetched {
    Result<Bytes> data = Result<Bytes>(InternalError("not fetched"));
    bool authentic = false;
  };
  Fetched Download(const ChunkRecord& chunk, const ChunkShare& loc, bool screen,
                   const RetryOptions& retry, TransferReport& report) const;
  // Downloads untried active locations, in order, until `wanted` shares
  // are admitted.
  void TopUp(const ChunkRecord& chunk, ChunkRead& read, size_t wanted, bool screen,
             const ChunkReadPolicy& policy) const;
  // Books a finished download into `read` and the policy hooks.
  void Admit(const ChunkShare& loc, Fetched fetched, ChunkRead& read,
             const ChunkReadPolicy& policy) const;
  bool Authentic(const ChunkShare& loc, const Bytes& data) const;
  bool Active(int csp) const;
  Result<SecretSharingCodec> CodecFor(const ChunkRecord& chunk) const;
  // After a failed id check of unscreened shares: rejects those failing
  // their digests and tops up with screened downloads. False when every
  // share passed.
  bool Screen(const ChunkRecord& chunk, ChunkRead& read,
              const ChunkReadPolicy& policy) const;
  // Reconstruct's healing tail, given the verified plaintext.
  void Heal(const ChunkRecord& chunk, ChunkRead& read, ByteSpan plaintext,
            const ChunkReadPolicy& policy) const;

  ChunkReaderContext context_;
};

}  // namespace cyrus

#endif  // SRC_CORE_CHUNK_READER_H_
