#include "core/sharded_pis.h"

#include "core/filter_impl.h"
#include "util/logging.h"

namespace pis {

ShardedPisEngine::ShardedPisEngine(const GraphDatabase* db,
                                   const ShardedFragmentIndex* index,
                                   const PisOptions& options)
    : db_(db), index_(index), options_(options) {
  PIS_CHECK(db_ != nullptr && index_ != nullptr);
  PIS_CHECK(index_->db_size() == db_->size())
      << "sharded index was built over a different database";
}

internal::LocalIndexView ShardedPisEngine::View() const {
  // Per-shard range queries already exclude per-shard tombstones; the
  // global set seeds the dead slots for the no-pruning path and the live
  // selectivity denominator (it also covers compacted-away ids).
  internal::LocalIndexView view{db_, {}, &index_->tombstones(),
                                &index_->options().spec};
  view.shards.reserve(index_->num_shards());
  for (int s = 0; s < index_->num_shards(); ++s) {
    view.shards.push_back({&index_->shard(s), &index_->global_ids(s), s});
  }
  return view;
}

Result<FilterResult> ShardedPisEngine::Filter(const Graph& query) const {
  return internal::FilterLocal(View(), options_, query, nullptr);
}

Result<SearchResult> ShardedPisEngine::Search(const Graph& query) const {
  return internal::SearchLocal(View(), options_, query, nullptr);
}

BatchSearchResult ShardedPisEngine::SearchBatch(std::span<const Graph> queries,
                                                int num_threads) const {
  return internal::SearchBatchLocal(View(), options_, queries, num_threads);
}

}  // namespace pis
