#include "src/core/chunk_reader.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/cloud/circuit_breaker.h"
#include "src/crypto/naming.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

// Dispersal-matrix rows are a deterministic prefix for fixed (key, t), so a
// decoder built with the maximum n decodes shares stored under any n.
constexpr uint32_t kMaxShares = 255;

void Charge(uint64_t bytes, ChunkRead& read, const ChunkReadPolicy& policy) {
  read.bytes_moved += bytes;
  if (policy.budget_left != nullptr) {
    *policy.budget_left -= std::min(*policy.budget_left, bytes);
  }
}

// Fewer than t shares: kIntegrity when digest rejects caused it, naming
// the CSPs that served them.
Status Shortfall(const ChunkRecord& chunk, const ChunkRead& read) {
  std::string blamed;
  for (const ChunkShare& loc : read.rejected) {
    blamed += StrCat(blamed.empty() ? "" : ", ", "csp ", loc.csp);
  }
  if (!blamed.empty()) {
    return IntegrityError(StrCat("chunk ", chunk.id.ToHex(), ": only ", read.shares.size(),
                                 " of t=", chunk.t,
                                 " shares authenticated (digest mismatch at ", blamed, ")"));
  }
  return DataLossError(StrCat("chunk ", chunk.id.ToHex(), ": only ", read.shares.size(),
                              " of t=", chunk.t, " shares reachable"));
}

}  // namespace

ChunkReader::ChunkReader(ChunkReaderContext context) : context_(std::move(context)) {}

bool ChunkReader::Active(int csp) const {
  auto state = context_.registry->state(csp);
  return state.ok() && *state == CspState::kActive;
}

// The one share-digest comparison in the client.
bool ChunkReader::Authentic(const ChunkShare& loc, const Bytes& data) const {
  return !context_.verify_share_digests || !loc.has_digest() ||
         Sha1::Hash(data) == loc.digest;
}

Result<SecretSharingCodec> ChunkReader::CodecFor(const ChunkRecord& chunk) const {
  if (!chunk.dedup) {
    return SecretSharingCodec::Create(context_.key_string, chunk.t, kMaxShares);
  }
  // Convergent chunks were dispersed under their content key; unwrapping it
  // needs only the user key (reads never touch the deployment salt).
  if (context_.deriver == nullptr) {
    return FailedPreconditionError("no key deriver for a convergent chunk");
  }
  CYRUS_ASSIGN_OR_RETURN(std::string key,
                         context_.deriver->UnwrapForUser(chunk.wrapped_key, chunk.id));
  return SecretSharingCodec::Create(key, chunk.t, kMaxShares);
}

ChunkReader::Fetched ChunkReader::Download(const ChunkRecord& chunk,
                                           const ChunkShare& loc, bool screen,
                                           const RetryOptions& retry,
                                           TransferReport& report) const {
  Fetched fetched;
  auto conn = context_.registry->connector(loc.csp);
  if (!conn.ok()) {
    fetched.data = conn.status();
    return fetched;
  }
  fetched.data = DownloadWithRetry(**conn, TransferKind::kGet, loc.csp,
                                   ShareName(chunk.id, loc.share_index, chunk.t),
                                   retry, report);
  fetched.authentic = fetched.data.ok() && (!screen || Authentic(loc, *fetched.data));
  return fetched;
}

void ChunkReader::Admit(const ChunkShare& loc, Fetched fetched, ChunkRead& read,
                        const ChunkReadPolicy& policy) const {
  if (!fetched.data.ok()) {
    // Only provider-indicting failures count against the CSP; a missing
    // object is stale metadata, not an outage.
    if (IsCspHealthFailure(fetched.data.status()) && policy.on_transfer_failure) {
      policy.on_transfer_failure(loc.csp, fetched.data.status());
    }
    return;
  }
  Charge(fetched.data->size(), read, policy);
  if (!fetched.authentic) {
    // Discarded before decode, where a poisoned share would corrupt the
    // reconstruction; the read tops up from another location.
    read.rejected.push_back(loc);
    if (policy.on_integrity_failure) {
      policy.on_integrity_failure(loc.csp);
    }
    return;
  }
  if (policy.on_share_ok) {
    policy.on_share_ok(loc.csp);
  }
  read.sources.push_back(loc);
  read.shares.push_back(Share{loc.share_index, *std::move(fetched.data)});
}

ChunkRead ChunkReader::FetchAuthenticated(const ChunkRecord& chunk,
                                          std::vector<ChunkShare> locations,
                                          size_t wanted,
                                          const ChunkReadPolicy& policy) const {
  ChunkRead read;
  read.locations = std::move(locations);
  std::vector<const ChunkShare*> active;
  for (const ChunkShare& loc : read.locations) {
    if (Active(loc.csp)) {
      active.push_back(&loc);
    }
  }
  std::vector<bool> tried(active.size(), false);
  const size_t wave = std::min(wanted, active.size());
  const bool screen = policy.screen_before_decode;

  if (policy.hedge && context_.fetcher != nullptr && wave > 0) {
    // The wave runs as primaries against adaptive per-CSP deadlines; the
    // other locations are spares, launched as backups for stragglers or as
    // replacements for failures.
    std::vector<HedgeCandidate> candidates;
    for (const ChunkShare* loc : active) {
      auto conn = context_.registry->connector(loc->csp);
      CloudConnector* raw = conn.ok() ? *conn : nullptr;
      const std::string object = ShareName(chunk.id, loc->share_index, chunk.t);
      const RetryOptions retry = policy.retry;
      candidates.push_back(HedgeCandidate{
          loc->csp, loc->share_index, [raw, object, retry]() -> Result<Bytes> {
            if (raw == nullptr) {
              return NotFoundError("no connector");
            }
            return RetryWithBackoff(
                retry, [&]() -> Result<Bytes> { return raw->Download(object); });
          }});
    }
    std::vector<HedgeFetchResult> outcomes =
        context_.fetcher->Fetch(std::move(candidates), wave, wanted);
    // In the caller's order. A straggler whose backup won is still in
    // flight and has no outcome; wins past `wanted` are dropped unjournaled,
    // like losers.
    std::sort(outcomes.begin(), outcomes.end(),
              [](const HedgeFetchResult& a, const HedgeFetchResult& b) {
                return a.candidate < b.candidate;
              });
    for (HedgeFetchResult& outcome : outcomes) {
      const bool ok = outcome.data.ok();
      read.hedged += outcome.hedged && ok ? 1 : 0;
      if (ok && read.shares.size() >= wanted) {
        continue;
      }
      const ChunkShare& loc = *active[outcome.candidate];
      tried[outcome.candidate] = true;
      read.report.records.push_back(
          TransferRecord{TransferKind::kGet, loc.csp,
                         ShareName(chunk.id, loc.share_index, chunk.t),
                         ok ? outcome.data->size() : uint64_t{0}, ok});
      const bool authentic = ok && (!screen || Authentic(loc, *outcome.data));
      Admit(loc, Fetched{std::move(outcome.data), authentic}, read, policy);
    }
  } else if (wave > 1 && context_.pool != nullptr) {
    // Digests are checked on the workers, as parallel as the downloads.
    std::vector<Fetched> fetched(wave);
    std::vector<TransferReport> reports(wave);
    context_.pool->ParallelFor(wave, [&](size_t i) {
      fetched[i] = Download(chunk, *active[i], screen, policy.retry, reports[i]);
    });
    for (size_t i = 0; i < wave; ++i) {
      tried[i] = true;
      read.report.Append(reports[i]);
      Admit(*active[i], std::move(fetched[i]), read, policy);
    }
  }

  // Top up what the wave lost, one location at a time in the caller's
  // order (without a pool, this is the whole read).
  for (size_t i = 0; i < active.size(); ++i) {
    if (!tried[i]) {
      read.untried.push_back(*active[i]);
    }
  }
  TopUp(chunk, read, wanted, screen, policy);
  return read;
}

void ChunkReader::TopUp(const ChunkRecord& chunk, ChunkRead& read, size_t wanted,
                        bool screen, const ChunkReadPolicy& policy) const {
  for (const ChunkShare& loc : std::exchange(read.untried, {})) {
    if (read.shares.size() >= wanted || !Active(loc.csp)) {
      read.untried.push_back(loc);
    } else {
      Admit(loc, Download(chunk, loc, screen, policy.retry, read.report), read, policy);
    }
  }
}

Status ChunkReader::Reconstruct(const ChunkRecord& chunk, ChunkRead& read,
                                MutableByteSpan dst,
                                const ChunkReadPolicy& policy) const {
  if (dst.size() != chunk.size) {
    return InvalidArgumentError("chunk destination size mismatch");
  }
  if (read.shares.size() < chunk.t) {
    return Shortfall(chunk, read);
  }
  CYRUS_ASSIGN_OR_RETURN(SecretSharingCodec codec, CodecFor(chunk));
  read.codec.emplace(std::move(codec));
  CYRUS_RETURN_IF_ERROR(read.codec->DecodeInto(read.shares, dst));
  bool id_ok = Sha1::Hash(dst) == chunk.id;
  if (!id_ok && !policy.screen_before_decode && Screen(chunk, read, policy)) {
    if (read.shares.size() < chunk.t) {
      return Shortfall(chunk, read);
    }
    CYRUS_RETURN_IF_ERROR(read.codec->DecodeInto(read.shares, dst));
    id_ok = Sha1::Hash(dst) == chunk.id;
  }
  if (!id_ok && !policy.heal) {
    return DataLossError(
        StrCat("chunk ", chunk.id.ToHex(), " failed its id check after decode"));
  }
  // A share no digest screened out may be corrupt (bit rot or a tampering
  // provider): a failed id check proves one is, and extra unscreened shares
  // (a scrub reads every share) are unchecked by the decode. The
  // error-correcting decode - an exhaustive t-subset search, after pulling
  // every remaining share - recovers the plaintext and names them.
  auto unscreened = [&](const ChunkShare& loc) {
    return !context_.verify_share_digests || !loc.has_digest();
  };
  if (!id_ok || (policy.heal && read.shares.size() > chunk.t &&
                 std::any_of(read.sources.begin(), read.sources.end(), unscreened))) {
    read.corrected = true;
    TopUp(chunk, read, ChunkReader::kAllShares, /*screen=*/true, policy);
    auto corrected = read.codec->DecodeWithErrorCorrection(read.shares, chunk.size);
    if (!corrected.ok() || Sha1::Hash(corrected->chunk) != chunk.id) {
      return IntegrityError(StrCat("chunk ", chunk.id.ToHex(),
                                   " failed integrity check after decode"));
    }
    std::copy(corrected->chunk.begin(), corrected->chunk.end(), dst.begin());
    for (uint32_t index : corrected->corrupted_indices) {
      for (const ChunkShare& source : read.sources) {
        if (source.share_index == index) {
          read.corrupt.push_back(source);
          break;
        }
      }
    }
  }
  if (policy.heal &&
      ((context_.verify_share_digests &&
        std::any_of(read.locations.begin(), read.locations.end(), unscreened)) ||
       !read.rejected.empty() || !read.corrupt.empty())) {
    Heal(chunk, read, dst, policy);  // not on a clean, authenticated read
  }
  return OkStatus();
}

bool ChunkReader::Screen(const ChunkRecord& chunk, ChunkRead& read,
                         const ChunkReadPolicy& policy) const {
  const size_t rejected_before = read.rejected.size();
  std::vector<Share> shares = std::exchange(read.shares, {});
  std::vector<ChunkShare> sources = std::exchange(read.sources, {});
  for (size_t i = 0; i < shares.size(); ++i) {
    if (Authentic(sources[i], shares[i].data)) {
      read.shares.push_back(std::move(shares[i]));
      read.sources.push_back(sources[i]);
    } else {
      read.rejected.push_back(sources[i]);
      if (policy.on_integrity_failure) {
        policy.on_integrity_failure(sources[i].csp);
      }
    }
  }
  if (read.rejected.size() == rejected_before) {
    return false;
  }
  TopUp(chunk, read, chunk.t, /*screen=*/true, policy);
  return true;
}

void ChunkReader::Heal(const ChunkRecord& chunk, ChunkRead& read, ByteSpan plaintext,
                       const ChunkReadPolicy& policy) const {
  std::set<uint32_t> indices;
  for (const ChunkShare& loc : read.locations) {
    indices.insert(loc.share_index);
  }
  // Share bytes are a pure function of (chunk, key, index): re-encoding the
  // verified plaintext gives exactly what a clean provider holds - the
  // bytes to overwrite with, and to digest.
  const size_t share_len = ShareSize(chunk.size, chunk.t);
  PooledBuffer buffer = context_.buffers->Acquire(std::max<size_t>(share_len, 1));
  const MutableByteSpan fresh = buffer.span(share_len);
  std::vector<ShareDigest> derived;
  for (uint32_t index : indices) {
    if (!read.codec->EncodeShareInto(plaintext, index, fresh).ok()) {
      continue;
    }
    // Overwrite in place (uploads are idempotent under the content-
    // addressed name). Best effort: a failed heal is the next scrub's job.
    for (const std::vector<ChunkShare>* bad : {&read.rejected, &read.corrupt}) {
      for (const ChunkShare& loc : *bad) {
        if (loc.share_index != index || !Active(loc.csp)) {
          continue;
        }
        auto conn = context_.registry->connector(loc.csp);
        if (conn.ok() &&
            UploadWithRetry(**conn, TransferKind::kPut, loc.csp,
                            ShareName(chunk.id, index, chunk.t), fresh, policy.retry,
                            read.report)
                .ok()) {
          ++read.healed;
          Charge(fresh.size(), read, policy);
        }
      }
    }
    if (context_.verify_share_digests) {
      derived.push_back(ShareDigest{index, Sha1::Hash(fresh)});
    }
  }
  // The digest set is news when the record lacked some, or when this read
  // changed or doubted what the providers store.
  if (read.healed > 0 || read.corrected ||
      std::any_of(read.locations.begin(), read.locations.end(),
                  [](const ChunkShare& loc) { return !loc.has_digest(); })) {
    read.digests = std::move(derived);
  }
}

}  // namespace cyrus
