// PIS search over a sharded fragment index: each query fans its range
// queries across the per-shard indexes and merges the per-shard results
// back to global graph ids before the partition/pruning logic runs. The
// filtering core is shared with PisEngine (core/filter_impl.h), so for any
// shard count and any thread count the answers, candidates, and
// partition-derived stats are identical to the unsharded engine — only
// `range_queries` grows (one physical query per shard per fragment).
#ifndef PIS_CORE_SHARDED_PIS_H_
#define PIS_CORE_SHARDED_PIS_H_

#include <span>

#include "core/options.h"
#include "core/pis.h"
#include "index/sharded_index.h"
#include "util/status.h"

namespace pis {

/// \brief Partition-based search engine over a sharded fragment index.
class ShardedPisEngine {
 public:
  /// `db` and `index` must outlive the engine; the index must have been
  /// built over exactly this database. `options.shard_threads` controls the
  /// per-query fan-out across shards; `options.verify_threads` the
  /// candidate verification, both without affecting results.
  ShardedPisEngine(const GraphDatabase* db, const ShardedFragmentIndex* index,
                   const PisOptions& options = {});

  /// Algorithm 2 over all shards: identical candidates and stats to
  /// PisEngine::Filter on an unsharded index of the same database, except
  /// `range_queries` counts per-shard physical queries.
  Result<FilterResult> Filter(const Graph& query) const;

  /// Filter + verification: the exact SSSD answer set (global graph ids).
  Result<SearchResult> Search(const Graph& query) const;

  /// Batched search; same contract as PisEngine::SearchBatch. When more
  /// than one batch worker runs, per-query shard fan-out and verification
  /// are clamped to one thread each so the fan-outs don't multiply.
  BatchSearchResult SearchBatch(std::span<const Graph> queries,
                                int num_threads = 0) const;

  const PisOptions& options() const { return options_; }
  const ShardedFragmentIndex& index() const { return *index_; }

 private:
  /// The engine as data for the shared filter/search body (the same one
  /// PisEngine runs): every shard with its local -> global id map.
  internal::LocalIndexView View() const;

  const GraphDatabase* db_;
  const ShardedFragmentIndex* index_;
  PisOptions options_;
};

}  // namespace pis

#endif  // PIS_CORE_SHARDED_PIS_H_
