#include "core/pis.h"

#include "core/filter_impl.h"
#include "util/logging.h"

namespace pis {

PisEngine::PisEngine(const GraphDatabase* db, const FragmentIndex* index,
                     const PisOptions& options)
    : db_(db), index_(index), options_(options) {
  PIS_CHECK(db_ != nullptr && index_ != nullptr);
  PIS_CHECK(index_->db_size() == db_->size())
      << "index was built over a different database";
}

internal::LocalIndexView PisEngine::View() const {
  return {db_, {{index_, nullptr, 0}}, &index_->tombstones(),
          &index_->options().spec};
}

Result<FilterResult> PisEngine::Filter(const Graph& query) const {
  return internal::FilterLocal(View(), options_, query, nullptr);
}

Result<SearchResult> PisEngine::Search(const Graph& query) const {
  return internal::SearchLocal(View(), options_, query, nullptr);
}

BatchSearchResult PisEngine::SearchBatch(std::span<const Graph> queries,
                                         int num_threads) const {
  return internal::SearchBatchLocal(View(), options_, queries, num_threads);
}

}  // namespace pis
