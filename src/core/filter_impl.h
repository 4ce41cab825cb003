// Shared implementation of the PIS filtering phase (Algorithm 2) and the
// search drivers built on it. Algorithm 2 is one straight line, and this
// header is its three steps as plain functions of data:
//
//   EnumerateQueryFragments : the query's indexed fragments (lines 3-4);
//   RangeQueryFragments     : one range query per fragment over a set of
//                             shards, merged to per-fragment global-id
//                             minimum-distance maps (lines 10-16);
//   RunPisFilter            : the ε-filter and intersection, the partition
//                             and pass 2, over those maps (lines 5-23).
//
// PisEngine (one shard, identity ids) and ShardedPisEngine (S shards) run
// all three in-process through FilterLocal/SearchLocal/SearchBatchLocal;
// a shard server runs the first two over its requested shards
// (server/shard_ops.h); the cluster router unions the shard servers' maps
// and runs RunPisFilter on them. Every deployment therefore filters with
// byte-identical logic, so the engines' equivalence falls out by
// construction.
//
// Internal header: not exported through pis.h.
#ifndef PIS_CORE_FILTER_IMPL_H_
#define PIS_CORE_FILTER_IMPL_H_

#include <cstddef>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/options.h"
#include "core/pis.h"
#include "core/query_fragments.h"
#include "index/fragment_index.h"
#include "obs/trace.h"
#include "util/mutex.h"
#include "util/parallel.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace pis::internal {

/// Per-batch memo of query-fragment enumeration, shared by the workers of
/// one SearchBatch call (ROADMAP "duplicate queries" lever). Keyed by the
/// canonical minimum DFS code of the query COMBINED with its exact
/// serialized encoding: a hit strictly isomorphism-keyed on the code alone
/// would let a renumbered twin inherit a foreign fragment list, permuting
/// fragment order and vertex sets — answers would stay exact (verification
/// runs on the real query), but selectivity-tie partition choices could
/// drift and the batch would no longer equal a sequential Search loop
/// counter for counter. With the composite key, identical repeats of EVERY
/// distinct encoding hit (including repeats of each renumbered twin), and
/// distinct encodings never share an entry. The mutex guards only the map;
/// entries are immutable shared_ptrs copied out before use, so workers
/// never hold the lock across fragment-vector copies.
struct QueryEnumCache {
  Mutex mu;
  std::unordered_map<std::string,
                     std::shared_ptr<const std::vector<QueryFragment>>>
      by_key PIS_GUARDED_BY(mu);
};

/// One fragment's range-query result: global graph id -> minimum distance
/// over all of the graph's matches within sigma (Eq. 3).
using FragmentDists = std::unordered_map<int, double>;

/// One index a range-query sweep covers.
struct RangeQueryShard {
  const FragmentIndex* index = nullptr;
  /// Local -> global graph ids; null for a flat index, whose ids are global.
  const std::vector<int>* global_ids = nullptr;
  /// Shard number, naming the shard's trace span.
  int id = 0;
};

/// Enumerates the query's indexed fragments against `catalog` (for a
/// sharded index any shard works: classes are registered from the feature
/// set alone, so every shard carries the same catalog). Rejects an empty
/// query. `enum_cache` (nullable) memoizes the enumeration across the
/// queries of one batch: a duplicate query reuses the first duplicate's
/// fragment list (stats->enum_cache_hits = 1). Results are identical either
/// way; unkeyable queries (disconnected) simply bypass the cache. Sets
/// stats->enumerate_seconds.
Result<std::vector<QueryFragment>> EnumerateQueryFragments(
    const FragmentIndex& catalog, const Graph& query,
    const PisOptions& options, QueryEnumCache* enum_cache, QueryStats* stats);

/// The range-query step: for every fragment, the per-graph minimum distance
/// over every shard in `shards`, keyed by global id. Shards are swept one
/// by one (each shard runs all fragments; `num_threads` fans the shards
/// out). Shards own disjoint id ranges, so merging them is a plain union
/// and any thread schedule yields identical maps.
/// Tombstoned graphs never appear (FragmentIndex::RangeQuery excludes
/// them). Adds fragments × shards to stats->range_queries and the step's
/// wall time to stats->pass1_seconds. With `trace`, records one
/// `range_queries:shard<id>` span per shard.
Status RangeQueryFragments(std::span<const RangeQueryShard> shards,
                           const std::vector<QueryFragment>& fragments,
                           double sigma, int num_threads,
                           std::vector<FragmentDists>* dists,
                           QueryStats* stats, TraceContext* trace = nullptr);

/// Algorithm 2 after the range queries, over `db_size` graph-id slots:
/// pass-1 ε-filter + intersection, overlap-graph partition, and pass-2
/// summed-lower-bound pruning. `result->fragments` holds the enumerated
/// fragments and `dists[i]` fragment i's map; the partition draws from the
/// kept fragments, so pass 2 replays their maps and issues no range query.
/// The router calls this on maps merged across the socket boundary, which
/// is what makes distributed filtering byte-identical to the in-process
/// engines — selectivity denominators, partition choice, pass-2 bounds.
///
/// `tombstones` (nullable) holds removed graph ids: they start dead — never
/// candidates even when no query fragment prunes anything — and the
/// selectivity denominator is the live count, so an incrementally mutated
/// index filters exactly like one rebuilt from scratch over the live
/// graphs. Fills every counter except range_queries and enum_cache_hits,
/// and adds the stage timings (pass1_seconds accumulates onto the range-
/// query step's share).
Status RunPisFilter(int db_size, const std::unordered_set<int>* tombstones,
                    const PisOptions& options,
                    std::vector<FragmentDists> dists, FilterResult* result);

/// What an in-process engine searches: its database, the shards its range
/// queries sweep (a flat index is one shard with identity ids), and the
/// global dead set. The first shard doubles as the enumeration catalog.
struct LocalIndexView {
  const GraphDatabase* db = nullptr;
  std::vector<RangeQueryShard> shards;
  const std::unordered_set<int>* tombstones = nullptr;
  const DistanceSpec* spec = nullptr;
};

/// Enumerate, range-query and filter in-process. filter_seconds is the
/// wall time of the three; enumerate_seconds, pass1_seconds,
/// partition_seconds and pass2_seconds tile it back to back.
Result<FilterResult> FilterLocal(const LocalIndexView& view,
                                 const PisOptions& options, const Graph& query,
                                 QueryEnumCache* enum_cache);

/// FilterLocal plus verification: the exact SSSD answer set.
Result<SearchResult> SearchLocal(const LocalIndexView& view,
                                 const PisOptions& options, const Graph& query,
                                 QueryEnumCache* enum_cache);

/// SearchLocal over a batch, sharing one enumeration cache. When more than
/// one batch worker actually runs, per-query verification and shard
/// fan-out are clamped to one thread each so the fan-outs don't multiply
/// into oversubscription; this never changes results, only scheduling.
BatchSearchResult SearchBatchLocal(const LocalIndexView& view,
                                   const PisOptions& options,
                                   std::span<const Graph> queries,
                                   int num_threads);

/// The SearchBatch driver: fans `run_query(i)` over 0..num_queries-1 with
/// ParallelFor, isolates per-query exceptions as Internal errors, and
/// aggregates stats over the successful queries. The caller resolves
/// `num_threads` (> 0) and applies any thread clamping first.
template <typename RunQuery>
BatchSearchResult RunSearchBatch(size_t num_queries, int num_threads,
                                 const RunQuery& run_query) {
  Timer timer;
  BatchSearchResult batch;
  batch.results.assign(num_queries,
                       Result<SearchResult>(Status::Internal("query not run")));
  ParallelFor(num_queries, num_threads, [&](size_t qi) {
    // ParallelFor requires that exceptions never escape the body; Search is
    // Status-based, so anything thrown below it is a defect we surface as a
    // per-query internal error rather than a process abort.
    try {
      batch.results[qi] = run_query(qi);
    } catch (const std::exception& e) {
      batch.results[qi] =
          Status::Internal(std::string("uncaught: ") + e.what());
    } catch (...) {
      batch.results[qi] = Status::Internal("uncaught non-standard exception");
    }
  });
  for (const Result<SearchResult>& r : batch.results) {
    if (r.ok()) {
      ++batch.succeeded;
      batch.total_stats.Accumulate(r.value().stats);
    } else {
      ++batch.failed;
    }
  }
  batch.wall_seconds = timer.Seconds();
  return batch;
}

}  // namespace pis::internal

#endif  // PIS_CORE_FILTER_IMPL_H_
