#include "core/filter_impl.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "canonical/min_dfs.h"
#include "core/partition.h"
#include "core/selectivity.h"
#include "core/verifier.h"
#include "graph/io.h"
#include "util/logging.h"

namespace pis::internal {

namespace {

/// Looks the query up in the batch enumeration cache. On a hit, copies the
/// memoized fragment list into `fragments` (the copy happens outside the
/// cache lock — only the shared_ptr is fetched under it) and returns true.
/// On a miss, leaves the composite cache key in `key` so the caller can
/// insert its enumeration; an unkeyable query (MinDfsCode rejects it, e.g.
/// disconnected) leaves `key` empty and the caller skips the insert too.
bool LookUpEnumCache(QueryEnumCache* cache, const Graph& query,
                     std::vector<QueryFragment>* fragments, std::string* key) {
  CanonicalOptions canon_opts;
  canon_opts.use_labels = true;
  canon_opts.first_embedding_only = true;
  Result<CanonicalForm> canon = MinDfsCode(query, canon_opts);
  if (!canon.ok()) return false;
  // Composite key: canonical code (the isomorphism class) plus the exact
  // encoding (distinguishes renumbered twins — see QueryEnumCache docs).
  // '\n' cannot appear in a code key, so the join is unambiguous.
  *key = canon.value().Key() + '\n' + FormatGraph(query, 0);
  std::shared_ptr<const std::vector<QueryFragment>> cached;
  {
    MutexLock lock(&cache->mu);
    auto it = cache->by_key.find(*key);
    if (it != cache->by_key.end()) cached = it->second;
  }
  if (cached == nullptr) return false;
  *fragments = *cached;
  return true;
}

/// Runs one fragment's range query against one shard and folds the
/// per-graph minimum distance into `out`, keyed by global id (Algorithm 2
/// lines 10-16).
Status MinDistancePerGraph(const RangeQueryShard& shard,
                           const PreparedFragment& fragment, double sigma,
                           FragmentDists* out) {
  return shard.index->RangeQuery(fragment, sigma, [&](int local, double d) {
    const int gid =
        shard.global_ids != nullptr ? (*shard.global_ids)[local] : local;
    auto [it, inserted] = out->try_emplace(gid, d);
    if (!inserted && d < it->second) it->second = d;
  });
}

}  // namespace

Result<std::vector<QueryFragment>> EnumerateQueryFragments(
    const FragmentIndex& catalog, const Graph& query,
    const PisOptions& options, QueryEnumCache* enum_cache, QueryStats* stats) {
  if (query.Empty()) {
    return Status::InvalidArgument("query graph is empty");
  }
  Timer timer;
  std::vector<QueryFragment> fragments;
  std::string cache_key;
  if (enum_cache != nullptr &&
      LookUpEnumCache(enum_cache, query, &fragments, &cache_key)) {
    stats->enum_cache_hits = 1;
  } else {
    PIS_ASSIGN_OR_RETURN(fragments,
                         EnumerateIndexedQueryFragments(
                             catalog, query, options.max_query_fragments));
    if (enum_cache != nullptr && !cache_key.empty()) {
      auto shared =
          std::make_shared<const std::vector<QueryFragment>>(fragments);
      MutexLock lock(&enum_cache->mu);
      // First writer wins on a race; both enumerated the same thing.
      enum_cache->by_key.emplace(std::move(cache_key), std::move(shared));
    }
  }
  stats->enumerate_seconds = timer.Seconds();
  return fragments;
}

Status RangeQueryFragments(std::span<const RangeQueryShard> shards,
                           const std::vector<QueryFragment>& fragments,
                           double sigma, int num_threads,
                           std::vector<FragmentDists>* dists,
                           QueryStats* stats, TraceContext* trace) {
  Timer timer;
  // A sequential sweep folds every shard straight into `dists`; a parallel
  // one gives each shard its own maps, unioned once all shards are done.
  const bool parallel = num_threads > 1 && shards.size() > 1;
  dists->assign(fragments.size(), {});
  std::vector<std::vector<FragmentDists>> per_shard(parallel ? shards.size()
                                                             : 0);
  std::vector<Status> failures(shards.size());
  ParallelFor(shards.size(), num_threads, [&](size_t s) {
    ScopedSpan span(trace,
                    "range_queries:shard" + std::to_string(shards[s].id));
    std::vector<FragmentDists>& out = parallel ? per_shard[s] : *dists;
    out.resize(fragments.size());
    for (size_t fi = 0; fi < fragments.size(); ++fi) {
      failures[s] = MinDistancePerGraph(shards[s], fragments[fi].prepared,
                                        sigma, &out[fi]);
      if (!failures[s].ok()) return;
    }
  });
  for (const Status& failure : failures) PIS_RETURN_NOT_OK(failure);
  for (std::vector<FragmentDists>& shard_dists : per_shard) {
    for (size_t fi = 0; fi < fragments.size(); ++fi) {
      (*dists)[fi].insert(shard_dists[fi].begin(), shard_dists[fi].end());
      shard_dists[fi] = {};
    }
  }
  stats->range_queries += fragments.size() * shards.size();
  stats->pass1_seconds += timer.Seconds();
  return Status::OK();
}

Status RunPisFilter(int db_size, const std::unordered_set<int>* tombstones,
                    const PisOptions& options,
                    std::vector<FragmentDists> dists, FilterResult* resultp) {
  FilterResult& result = *resultp;
  PIS_CHECK(dists.size() == result.fragments.size());
  const double sigma = options.sigma;
  result.stats.fragments_enumerated = result.fragments.size();
  // One stopwatch lapped at every stage boundary, so the stage timings
  // tile this call with no gap.
  Timer stage;

  // Pass 1 (Algorithm 2 lines 5-18): the ε-filter keeps selective
  // fragments (their maps stay in `dists` for pass 2 — the partition can
  // only draw from kept fragments) and CQ <- CQ ∩ T per fragment. Maps of
  // dropped fragments are released as soon as they are consumed.
  // Tombstoned slots start dead: they must not surface as candidates even
  // when the query enumerates no fragments (no pruning), and the
  // selectivity denominator below is the count of *live* graphs — both
  // exactly as in an index rebuilt without the removed graphs.
  std::vector<char> alive(db_size, 1);
  size_t alive_count = db_size;
  if (tombstones != nullptr) {
    for (int gid : *tombstones) {
      if (gid >= 0 && gid < db_size && alive[gid]) {
        alive[gid] = 0;
        --alive_count;
      }
    }
  }
  const int live_size = static_cast<int>(alive_count);

  std::vector<double> selectivities(result.fragments.size(), 0.0);
  std::vector<int> kept;  // positions into result.fragments
  std::vector<double> found;
  for (size_t fi = 0; fi < result.fragments.size(); ++fi) {
    const FragmentDists& dist = dists[fi];
    found.clear();
    found.reserve(dist.size());
    for (const auto& [gid, d] : dist) found.push_back(d);
    Timer selectivity_timer;
    selectivities[fi] =
        ComputeSelectivity(found, live_size, sigma, options.lambda);
    result.stats.selectivity_seconds += selectivity_timer.Seconds();
    // CQ <- CQ ∩ T (line 17). `dist` holds live graphs only, so covering
    // every live graph means nothing can be dropped.
    if (dist.size() < static_cast<size_t>(live_size)) {
      for (int gid = 0; gid < db_size; ++gid) {
        if (alive[gid] && dist.count(gid) == 0) {
          alive[gid] = 0;
          --alive_count;
        }
      }
    }
    if (selectivities[fi] > options.epsilon) {
      kept.push_back(static_cast<int>(fi));
    } else {
      dists[fi] = {};
    }
  }
  result.stats.candidates_after_intersection = alive_count;
  result.stats.fragments_kept = kept.size();
  result.selectivities = std::move(selectivities);
  result.stats.pass1_seconds += stage.Lap();

  // Overlapping-relation graph and the partition (lines 19-20).
  std::vector<WeightedFragment> weighted;
  weighted.reserve(kept.size());
  for (int fi : kept) {
    WeightedFragment wf;
    wf.weight = result.selectivities[fi];
    wf.vertices = result.fragments[fi].vertices;
    weighted.push_back(std::move(wf));
  }
  OverlapGraph overlap(weighted);
  std::vector<int> partition_local = SelectPartition(
      overlap, options.partition_algorithm, options.enhanced_k);
  result.partition.reserve(partition_local.size());
  for (int pi : partition_local) result.partition.push_back(kept[pi]);
  result.stats.partition_size = result.partition.size();
  result.stats.partition_weight = overlap.TotalWeight(partition_local);
  result.stats.partition_seconds += stage.Lap();

  // Pass 2 (lines 21-23): prune by the summed lower bound over the
  // partition, replaying the kept pass-1 maps.
  std::vector<double> lower_bound(db_size, 0.0);
  for (int fi : result.partition) {
    const FragmentDists& part_dist = dists[fi];
    for (int gid = 0; gid < db_size; ++gid) {
      if (!alive[gid]) continue;
      auto it = part_dist.find(gid);
      if (it == part_dist.end()) {
        // Structure violation (already impossible after line 17, but kept
        // defensive): the bound is unbounded.
        alive[gid] = 0;
        --alive_count;
      } else {
        lower_bound[gid] += it->second;
        if (lower_bound[gid] > sigma) {
          alive[gid] = 0;
          --alive_count;
        }
      }
    }
  }

  result.candidates.reserve(alive_count);
  for (int gid = 0; gid < db_size; ++gid) {
    if (alive[gid]) result.candidates.push_back(gid);
  }
  result.stats.candidates_final = result.candidates.size();
  result.stats.pass2_seconds += stage.Lap();
  return Status::OK();
}

Result<FilterResult> FilterLocal(const LocalIndexView& view,
                                 const PisOptions& options, const Graph& query,
                                 QueryEnumCache* enum_cache) {
  Timer timer;
  FilterResult result;
  PIS_ASSIGN_OR_RETURN(
      result.fragments,
      EnumerateQueryFragments(*view.shards.front().index, query, options,
                              enum_cache, &result.stats));
  std::vector<FragmentDists> dists;
  PIS_RETURN_NOT_OK(RangeQueryFragments(view.shards, result.fragments,
                                        options.sigma, options.shard_threads,
                                        &dists, &result.stats));
  PIS_RETURN_NOT_OK(RunPisFilter(view.db->size(), view.tombstones, options,
                                 std::move(dists), &result));
  result.stats.filter_seconds = timer.Seconds();
  return result;
}

Result<SearchResult> SearchLocal(const LocalIndexView& view,
                                 const PisOptions& options, const Graph& query,
                                 QueryEnumCache* enum_cache) {
  PIS_ASSIGN_OR_RETURN(FilterResult filtered,
                       FilterLocal(view, options, query, enum_cache));
  SearchResult result;
  result.candidates = std::move(filtered.candidates);
  result.stats = filtered.stats;
  VerifyResult verified =
      VerifyCandidates(*view.db, query, result.candidates, *view.spec,
                       options.sigma, options.verify_threads);
  result.answers = std::move(verified.answers);
  result.stats.answers = result.answers.size();
  result.stats.verify_seconds = verified.seconds;
  return result;
}

BatchSearchResult SearchBatchLocal(const LocalIndexView& view,
                                   const PisOptions& options,
                                   std::span<const Graph> queries,
                                   int num_threads) {
  if (num_threads <= 0) num_threads = HardwareThreads();
  // With multiple batch workers, per-query verification and shard fan-out
  // run sequentially: nesting them under the batch fan-out would multiply
  // the thread counts and oversubscribe the machine. The clamp keys on the
  // effective worker count (ParallelFor caps workers at the batch size), so
  // a narrow batch keeps its inner parallelism.
  PisOptions per_query = options;
  if (std::min(static_cast<size_t>(num_threads), queries.size()) > 1) {
    per_query.verify_threads = 1;
    per_query.shard_threads = 1;
  }
  // One enumeration memo per batch: duplicate queries reuse the first
  // duplicate's fragment list instead of re-enumerating (results are
  // identical; only work and stats.enum_cache_hits change).
  QueryEnumCache enum_cache;
  return RunSearchBatch(queries.size(), num_threads, [&](size_t qi) {
    return SearchLocal(view, per_query, queries[qi], &enum_cache);
  });
}

}  // namespace pis::internal
