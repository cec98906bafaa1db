#include "core/ppanns_service.h"

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include "common/io.h"
#include "common/timer.h"
#include "core/wal_records.h"

namespace ppanns {
namespace {

/// Prefixes a validation error's message while keeping its code, so callers
/// can branch on the code identically for Search and SearchBatch.
Status Annotate(const Status& st, const std::string& prefix) {
  switch (st.code()) {
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(prefix + st.message());
    case Status::Code::kFailedPrecondition:
      return Status::FailedPrecondition(prefix + st.message());
    default:
      return st;
  }
}

}  // namespace

std::size_t PpannsService::ExpectedDceBlock() const {
  return DceScheme::TransformedDim(dim());
}

Status PpannsService::ValidateQuery(const QueryToken& token, std::size_t k,
                                    const SearchSettings& settings) const {
  if (k == 0) return Status::InvalidArgument("Search: k must be positive");
  if (token.sap.size() != dim()) {
    return Status::InvalidArgument(
        "Search: SAP ciphertext dimension " + std::to_string(token.sap.size()) +
        " does not match database dimension " + std::to_string(dim()));
  }
  if (size() == 0) {
    return Status::FailedPrecondition("Search: database is empty");
  }
  if (settings.refine) {
    // The refine phase multiplies the trapdoor against every candidate's DCE
    // blocks; a short trapdoor would read out of bounds.
    const std::size_t block = ExpectedDceBlock();
    if (token.trapdoor.data.size() != block) {
      return Status::InvalidArgument(
          "Search: trapdoor length " +
          std::to_string(token.trapdoor.data.size()) +
          " does not match DCE block length " + std::to_string(block));
    }
  }
  return Status::OK();
}

namespace {

/// The facade's deadline contract: a query whose context tripped the
/// deadline comes back as a Status, not a silently truncated result. (A
/// cancellation or an exhausted node budget stays a result — the caller
/// asked for both and reads the reason off counters.early_exit.)
bool DeadlineTripped(const SearchResult& result) {
  return result.counters.early_exit == EarlyExit::kDeadlineExpired;
}

Status DeadlineStatus(const SearchSettings& settings) {
  return Status::DeadlineExceeded(
      "Search: query deadline" +
      (settings.deadline_ms > 0.0
           ? " of " + std::to_string(settings.deadline_ms) + " ms"
           : std::string()) +
      " expired mid-execution");
}

/// Gather-side admission control, opt-in via settings.admission_ms: a query
/// whose remaining deadline budget is already below the floor is shed before
/// any dispatch — kResourceExhausted instead of burning shard work on a
/// query that would only come back kDeadlineExceeded. With admission off
/// (the default) the deadline contract is untouched: the query runs and
/// trips the deadline cooperatively.
Status CheckAdmission(const SearchSettings& settings,
                      const SearchContext* ctx) {
  if (settings.admission_ms <= 0.0) return Status::OK();
  double remaining_ms;
  if (ctx != nullptr && ctx->has_deadline()) {
    remaining_ms = std::chrono::duration<double, std::milli>(
                       ctx->deadline() - SearchContext::Clock::now())
                       .count();
  } else if (settings.deadline_ms > 0.0) {
    remaining_ms = settings.deadline_ms;
  } else {
    return Status::OK();  // no deadline: nothing to measure the floor against
  }
  if (remaining_ms < settings.admission_ms) {
    return Status::ResourceExhausted(
        "admission: remaining deadline budget " +
        std::to_string(remaining_ms) + " ms is below the admission floor " +
        std::to_string(settings.admission_ms) + " ms");
  }
  return Status::OK();
}

}  // namespace

std::uint64_t PpannsService::CacheEpoch() const {
  // Both terms are monotonic, so their sum is too: an entry stamped before
  // any mutation — through the facade or through background maintenance —
  // can never match again. On a remote gather state_version() reads the
  // cluster epoch fence, which every mutation response and health ping
  // advances, so a mutation applied over the wire (or directly on a shard
  // server) stale-evicts here the same way a local one does.
  return cache_->mutation_epoch() + server_.state_version();
}

void PpannsService::EnableResultCache(const ResultCacheOptions& options) {
  cache_ = std::make_unique<ResultCache>(options);
}

ResultCacheStats PpannsService::result_cache_stats() const {
  PPANNS_CHECK(cache_ != nullptr);
  return cache_->Stats();
}

Result<SearchResult> PpannsService::Search(const QueryToken& token,
                                           std::size_t k,
                                           const SearchSettings& settings,
                                           SearchContext* ctx) const {
  return SearchOne(token, k, settings, nullptr, ctx);
}

Result<SearchResult> PpannsService::SearchAsync(const QueryToken& token,
                                                std::size_t k,
                                                const SearchSettings& settings,
                                                const AsyncOptions& async,
                                                SearchContext* ctx) const {
  return SearchOne(token, k, settings, &async, ctx);
}

Result<SearchResult> PpannsService::SearchOne(const QueryToken& token,
                                              std::size_t k,
                                              const SearchSettings& settings,
                                              const AsyncOptions* async,
                                              SearchContext* ctx) const {
  PPANNS_RETURN_IF_ERROR(ValidateQuery(token, k, settings));
  PPANNS_RETURN_IF_ERROR(CheckAdmission(settings, ctx));
  // The epoch is read BEFORE the search runs: a mutation that lands while
  // the query is in flight makes the inserted entry immediately stale —
  // conservative, never wrong.
  ResultCache::Key key;
  std::uint64_t epoch = 0;
  if (cache_ != nullptr) {
    key = ResultCache::MakeKey(token, k, settings);
    epoch = CacheEpoch();
    SearchResult cached;
    if (cache_->Lookup(key, epoch, &cached.ids)) {
      cached.counters.cache_hit = true;
      return cached;
    }
  }
  SearchContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  Result<SearchResult> result =
      async != nullptr ? server_.SearchAsync(token, k, settings, *async, ctx)
                       : Result<SearchResult>(
                             server_.Search(token, k, settings, ctx));
  if (result.ok() && DeadlineTripped(*result)) return DeadlineStatus(settings);
  if (cache_ != nullptr && result.ok() && CacheEligible(*result)) {
    // Hedged/failed-over answers are id-identical to the sync path, and
    // partial answers are never cached — so Search and SearchAsync share
    // one cache.
    cache_->Insert(key, epoch, result->ids);
  }
  return result;
}

Result<BatchSearchResult> PpannsService::SearchBatch(
    std::span<const QueryToken> tokens, std::size_t k,
    const SearchSettings& settings) const {
  // Hedging off: the flat (query, shard) fan-out serves the whole batch.
  return SearchBatch(tokens, k, settings, AsyncOptions{.hedge_ms = 0.0});
}

Result<BatchSearchResult> PpannsService::SearchBatch(
    std::span<const QueryToken> tokens, std::size_t k,
    const SearchSettings& settings, const AsyncOptions& async) const {
  // Validate everything up front: a batch either runs in full or not at all,
  // so callers never get partially filled results.
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    Status st = ValidateQuery(tokens[i], k, settings);
    if (!st.ok()) {
      return Annotate(st, "SearchBatch: token " + std::to_string(i) + ": ");
    }
  }
  // All-or-nothing, admission edition: every query of the batch shares the
  // same settings-derived budget, so one shed sheds them all — before any
  // shard work starts.
  PPANNS_RETURN_IF_ERROR(CheckAdmission(settings, nullptr));

  BatchSearchResult batch;
  Timer wall;
  batch.results.resize(tokens.size());

  // Cache pass: answer what the cache can, collect the rest for the
  // scatter. Duplicate tokens inside one batch stay independent queries
  // (they miss together and the last insert wins) — ids are identical
  // either way, so no intra-batch coordination is worth the complexity.
  std::vector<ResultCache::Key> keys;
  std::vector<std::size_t> miss_index;
  std::uint64_t epoch = 0;
  if (cache_ != nullptr) {
    epoch = CacheEpoch();
    keys.resize(tokens.size());
    miss_index.reserve(tokens.size());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      keys[i] = ResultCache::MakeKey(tokens[i], k, settings);
      if (cache_->Lookup(keys[i], epoch, &batch.results[i].ids)) {
        batch.results[i].counters.cache_hit = true;
        ++batch.counters.cache_hits;
      } else {
        miss_index.push_back(i);
      }
    }
  }

  // The scatter itself, over whichever tokens were not served above:
  // all Q*S (query, shard) filter items as one flat fan-out — hedged
  // through the claim-flag machinery when asked — then per-query
  // merge/refine. Same ids as a sequential loop, lower tail latency for
  // small batches.
  auto run = [&](std::span<const QueryToken> qs) {
    return server_.SearchBatchScattered(qs, k, settings, async);
  };

  if (cache_ == nullptr) {
    batch.results = run(tokens);
  } else if (!miss_index.empty()) {
    if (miss_index.size() == tokens.size()) {
      batch.results = run(tokens);  // nothing hit: skip the gather copy
    } else {
      std::vector<QueryToken> miss_tokens;
      miss_tokens.reserve(miss_index.size());
      for (std::size_t i : miss_index) miss_tokens.push_back(tokens[i]);
      std::vector<SearchResult> miss_results = run(miss_tokens);
      for (std::size_t j = 0; j < miss_index.size(); ++j) {
        batch.results[miss_index[j]] = std::move(miss_results[j]);
      }
    }
  }
  batch.counters.wall_seconds = wall.ElapsedSeconds();

  batch.counters.num_queries = tokens.size();
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    const SearchResult& r = batch.results[i];
    // All-or-nothing deadline contract, batch edition: one expired query
    // fails the batch (its siblings shared the same per-query deadline and
    // were truncated the same way).
    if (DeadlineTripped(r)) return DeadlineStatus(settings);
    batch.counters.total.Merge(r.counters);
    if (cache_ != nullptr && !r.counters.cache_hit && CacheEligible(r)) {
      cache_->Insert(keys[i], epoch, r.ids);
    }
  }
  return batch;
}

Status PpannsService::CheckMutable(const char* op) const {
  if (server_.remote()) {
    return Status::NotSupported(
        std::string(op) +
        ": this gather node serves remote shards; apply maintenance on "
        "the shard servers' own database");
  }
  return Status::OK();
}

Status PpannsService::ValidateInsert(const EncryptedVector& v) const {
  if (v.sap.size() != dim()) {
    return Status::InvalidArgument(
        "Insert: SAP ciphertext dimension " + std::to_string(v.sap.size()) +
        " does not match database dimension " + std::to_string(dim()));
  }
  // The DCE shape is fully determined by the database dimension: four
  // contiguous blocks of 2*d_pad+16 doubles. Anything else would read or
  // compare out of bounds during refinement.
  const std::size_t block = ExpectedDceBlock();
  if (v.dce.block != block || v.dce.data.size() != 4 * block) {
    return Status::InvalidArgument(
        "Insert: DCE ciphertext shape (" + std::to_string(v.dce.data.size()) +
        " doubles, block " + std::to_string(v.dce.block) +
        ") does not match the database (4 blocks of " + std::to_string(block) +
        ")");
  }
  return Status::OK();
}

Result<VectorId> PpannsService::Insert(const EncryptedVector& v) {
  // No CheckMutable: a server over remote shards routes the insert
  // through its attached MutationTransports (or refuses with NotSupported
  // itself when none are attached). The WAL below is the *gather's* log and
  // can only be attached on a local topology (AttachWal is gated).
  PPANNS_RETURN_IF_ERROR(ValidateInsert(v));
  if (wal_.has_value()) {
    // Append-before-apply: the mutation is durable before any in-memory
    // state changes, so a crash between the two replays it.
    Result<std::uint64_t> lsn =
        wal_->Append(WalRecordType::kInsert, EncodeWalInsert(v));
    if (!lsn.ok()) return lsn.status();
  }
  // Invalidate before applying: a search racing the mutation may cache a
  // pre-insert answer, but it will stamp it with the pre-bump epoch and
  // never serve it again — stale-conservative, never wrong.
  if (cache_ != nullptr) cache_->BumpMutationEpoch();
  return server_.Insert(v);
}

Status PpannsService::Delete(VectorId id) {
  if (wal_.has_value()) {
    // Logged before validity is known: a Delete the server rejects
    // (NotFound, bad id) replays to the same rejection, which ReplayWal
    // skips — cheaper than a validate-log-apply dance against the manifest.
    Result<std::uint64_t> lsn =
        wal_->Append(WalRecordType::kRemove, EncodeWalRemove(id));
    if (!lsn.ok()) return lsn.status();
  }
  // Bumped even when the Delete is then rejected (NotFound): a spurious
  // wholesale invalidation is harmless, a missed one is not.
  if (cache_ != nullptr) cache_->BumpMutationEpoch();
  return server_.Delete(id);
}

Status PpannsService::AttachWal(const std::string& dir, WalOptions options) {
  PPANNS_RETURN_IF_ERROR(CheckMutable("AttachWal"));
  Result<WalWriter> writer = WalWriter::Open(dir, options);
  if (!writer.ok()) return writer.status();
  wal_.emplace(std::move(*writer));
  return Status::OK();
}

Result<std::size_t> PpannsService::ReplayWal(const std::string& dir) {
  PPANNS_RETURN_IF_ERROR(CheckMutable("ReplayWal"));
  Result<std::vector<WalRecord>> records = ReadWal(dir);
  if (!records.ok()) return records.status();
  // One bump covers the whole replay: entries only ever compare stamps for
  // equality, so any forward movement invalidates everything cached before.
  if (cache_ != nullptr && !records->empty()) cache_->BumpMutationEpoch();
  std::size_t applied = 0;
  for (const WalRecord& record : *records) {
    switch (record.type) {
      case WalRecordType::kInsert: {
        Result<EncryptedVector> ev = DecodeWalInsert(record.payload);
        if (!ev.ok()) return ev.status();
        // A record that framed correctly but does not fit the loaded
        // package (wrong dimension) is a mismatched checkpoint/log pair —
        // an error, not a skip.
        PPANNS_RETURN_IF_ERROR(ValidateInsert(*ev));
        // Apply directly, bypassing the attached WAL: these records are
        // already in the log.
        (void)server_.Insert(*ev);
        break;
      }
      case WalRecordType::kRemove: {
        Result<VectorId> id = DecodeWalRemove(record.payload);
        if (!id.ok()) return id.status();
        const Status st = server_.Delete(*id);
        // Append-before-apply: a logged Delete may have failed in the
        // original run too (double delete, compacted-away id) — the replay
        // reproduces the rejection, which is the correct final state.
        if (!st.ok() && st.code() != Status::Code::kNotFound &&
            st.code() != Status::Code::kInvalidArgument) {
          return st;
        }
        break;
      }
      default:
        return Status::IOError(
            "ReplayWal: unknown record type " +
            std::to_string(static_cast<int>(record.type)) + " at lsn " +
            std::to_string(record.lsn));
    }
    ++applied;
  }
  return applied;
}

Status PpannsService::Checkpoint(const std::string& path) {
  PPANNS_RETURN_IF_ERROR(CheckMutable("Checkpoint"));
  BinaryWriter out;
  SerializeDatabase(&out);
  // Write-temp-then-rename: the previous checkpoint survives a crash at any
  // point, and the WAL is truncated only after the new one is durable.
  const std::string tmp = path + ".tmp";
  PPANNS_RETURN_IF_ERROR(WriteFile(tmp, out.buffer()));
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("Checkpoint: rename " + tmp + " -> " + path +
                           ": " + ec.message());
  }
  if (wal_.has_value()) return wal_->Truncate();
  return Status::OK();
}

WalStats PpannsService::wal_stats() const {
  PPANNS_CHECK(wal_.has_value());
  return wal_->Stats();
}

}  // namespace ppanns
