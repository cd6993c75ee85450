#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "graph/rewrite.h"
#include "operators/operator.h"
#include "optimizer/op_fusion.h"
#include "optimizer/pass.h"
#include "services/meta_service.h"
#include "services/result_cache.h"

namespace xorbits::optimizer {

using graph::ChunkNode;

namespace {

/// Elementwise-chain fusion, wrapped as a pass. Execution targets
/// (`must_persist`) are protected: fusing one away would leave its fetch
/// key forever unpublished.
class OpFusionPass : public ChunkPass {
 public:
  const char* name() const override { return kPassOpFusion; }
  Result<PassStats> Run(PassContext& ctx, std::vector<ChunkNode*>* closure,
                        const std::vector<ChunkNode*>& must_persist) override {
    PassStats stats;
    const int64_t before = static_cast<int64_t>(closure->size());
    std::unordered_set<const ChunkNode*> keep(must_persist.begin(),
                                              must_persist.end());
    *closure = FuseElementwiseChains(std::move(*closure), ctx.metrics, &keep);
    stats.nodes_removed = before - static_cast<int64_t>(closure->size());
    stats.nodes_rewritten = stats.nodes_removed;  // each merge rewrites one
    return stats;
  }
};

/// Common-subexpression elimination: two pending chunk nodes are duplicates
/// when their operators report equal CseSignatures, they are the same
/// output of their operator, and their (canonicalized) inputs match. The
/// duplicate's consumers are rewired to the first occurrence and the
/// duplicate leaves the closure unexecuted — it stays in the chunk graph,
/// so a later ExecutePartial can still run it if some future operator
/// consumes it directly.
class CsePass : public ChunkPass {
 public:
  const char* name() const override { return kPassCse; }
  Result<PassStats> Run(PassContext& ctx, std::vector<ChunkNode*>* closure,
                        const std::vector<ChunkNode*>& must_persist) override {
    PassStats stats;
    std::unordered_set<const ChunkNode*> persist(must_persist.begin(),
                                                 must_persist.end());
    std::unordered_map<std::string, ChunkNode*> first_seen;
    std::unordered_map<const ChunkNode*, ChunkNode*> canonical;
    std::vector<ChunkNode*> kept;
    kept.reserve(closure->size());
    for (ChunkNode* n : *closure) {
      // Rewire inputs that pointed at an eliminated duplicate.
      for (ChunkNode*& in : n->inputs) {
        auto it = canonical.find(in);
        if (it != canonical.end()) {
          in = it->second;
          stats.nodes_rewritten++;
        }
      }
      auto* op = dynamic_cast<const operators::ChunkOp*>(n->op.get());
      std::optional<std::string> sig =
          op != nullptr ? op->CseSignature() : std::nullopt;
      if (!sig.has_value()) {
        kept.push_back(n);
        continue;
      }
      std::string key = *sig + "#" + std::to_string(n->output_index);
      for (const ChunkNode* in : n->inputs) {
        key += "|";
        key += std::to_string(in->id);
      }
      auto [it, inserted] = first_seen.emplace(std::move(key), n);
      // Fetch targets keep their own storage key; never eliminate them.
      if (inserted || persist.count(n)) {
        kept.push_back(n);
        continue;
      }
      canonical[n] = it->second;
      stats.nodes_removed++;
      if (ctx.metrics != nullptr) ctx.metrics->Add(CounterId::kCseHits);
    }
    *closure = std::move(kept);
    return stats;
  }
};

/// Cross-session result-cache rewrite (DESIGN.md §9). Runs first in the
/// chunk pipeline, on the pre-fusion closure, so signatures are structural
/// and identical however later passes reshape this particular run.
///
/// For every pending node it derives a *transitive* cache signature — the
/// op's CacheSignature hashed together with its inputs' signatures — then
/// sweeps the closure in reverse topological order: a node still needed by
/// an execution target probes the cache, and on a hit is rewritten in place
/// into an already-materialized fetch (executed, keyed "cache/<sig>", meta
/// registered) so the whole ancestor cone falls out of the closure. Misses
/// are stamped with the signature (ChunkNode::cache_plan_sig) and source
/// tags; the executor publishes their payloads on completion.
///
/// Hits also (re-)register lineage for the cached key against *this*
/// session's live graph, captured before the rewrite, so a cached chunk
/// lost to chaos recovers by recomputing the sub-plan — and they pin the
/// entry via ctx.pinned_sigs until the driver's epilogue, closing the
/// evict-while-consuming race.
class ResultCachePass : public ChunkPass {
 public:
  const char* name() const override { return kPassResultCache; }
  Result<PassStats> Run(PassContext& ctx, std::vector<ChunkNode*>* closure,
                        const std::vector<ChunkNode*>& must_persist) override {
    PassStats stats;
    services::ResultCache* cache = ctx.result_cache;
    if (cache == nullptr || ctx.meta == nullptr ||
        ctx.pinned_sigs == nullptr) {
      return stats;
    }

    // Memoized transitive signatures + source tags, computed over the
    // closure *and* its executed ancestors (partial-tiling rounds may have
    // run the upstream cone already; its structure still names these bytes).
    struct NodeSig {
      std::optional<std::string> sig;
      std::vector<std::string> tags;
    };
    std::unordered_map<const ChunkNode*, NodeSig> memo;
    auto sig_of = [&](auto&& self, ChunkNode* n) -> const NodeSig& {
      auto it = memo.find(n);
      if (it != memo.end()) return it->second;
      NodeSig out;
      const auto* op = dynamic_cast<const operators::ChunkOp*>(n->op.get());
      std::optional<std::string> own =
          op != nullptr ? op->CacheSignature() : std::nullopt;
      if (own.has_value()) {
        std::string acc = *own + "#" + std::to_string(n->output_index);
        bool complete = true;
        for (ChunkNode* in : n->inputs) {
          const NodeSig& s = self(self, in);
          if (!s.sig.has_value()) {
            complete = false;
            break;
          }
          acc += "|" + *s.sig;
          for (const std::string& t : s.tags) {
            if (std::find(out.tags.begin(), out.tags.end(), t) ==
                out.tags.end()) {
              out.tags.push_back(t);
            }
          }
        }
        if (complete) {
          out.sig = services::ResultCache::HashHex(acc);
          if (op != nullptr) {
            if (auto tag = op->CacheSourceTag(); tag.has_value()) {
              out.tags.push_back(std::move(*tag));
            }
          }
        } else {
          out.tags.clear();
        }
      }
      return memo.emplace(n, std::move(out)).first->second;
    };

    std::unordered_set<const ChunkNode*> in_closure(closure->begin(),
                                                    closure->end());
    std::unordered_map<const ChunkNode*, std::vector<ChunkNode*>> consumers;
    for (ChunkNode* n : *closure) {
      for (ChunkNode* in : n->inputs) {
        if (in_closure.count(in)) consumers[in].push_back(n);
      }
    }
    std::unordered_set<const ChunkNode*> persist(must_persist.begin(),
                                                 must_persist.end());
    // Nodes leaving the closure: rewritten cache hits, and ancestors no
    // surviving node needs anymore.
    std::unordered_set<const ChunkNode*> gone;

    // Reverse-topo need sweep: consumers are decided before producers, so
    // a hit prunes its whole ancestor cone in one sweep.
    for (auto rit = closure->rbegin(); rit != closure->rend(); ++rit) {
      ChunkNode* n = *rit;
      bool needed = persist.count(n) != 0;
      if (!needed) {
        auto cit = consumers.find(n);
        if (cit != consumers.end()) {
          for (const ChunkNode* c : cit->second) {
            if (!gone.count(c)) {
              needed = true;
              break;
            }
          }
        }
      }
      if (!needed) {
        gone.insert(n);
        stats.nodes_removed++;
        continue;
      }
      const auto* op = dynamic_cast<const operators::ChunkOp*>(n->op.get());
      // Shuffle mappers publish multi-partition payloads that cannot live
      // under one cache key; they (and everything downstream of an op
      // without a CacheSignature) stay plain execution.
      if (op == nullptr || op->is_shuffle_map()) continue;
      const NodeSig& s = sig_of(sig_of, n);
      if (!s.sig.has_value()) continue;
      auto hit = cache->LookupAndPin(*s.sig);
      if (!hit.has_value()) {
        n->cache_plan_sig = *s.sig;
        n->cache_tags = s.tags;
        continue;
      }
      ctx.pinned_sigs->push_back(*s.sig);
      // Lineage against this session's live graph, captured *before* the
      // rewrite: outputs = {n} keyed by the cache key, so recovering a
      // lost cached chunk re-runs the producing cone and republishes the
      // exact bytes under "cache/<sig>".
      services::ChunkLineage lineage;
      lineage.nodes = graph::PendingClosure({n});
      lineage.outputs = {n};
      lineage.session = ctx.session_id;
      {
        std::unordered_set<const ChunkNode*> group(lineage.nodes.begin(),
                                                   lineage.nodes.end());
        for (const ChunkNode* g : lineage.nodes) {
          for (ChunkNode* in : g->inputs) {
            if (!group.count(in)) lineage.input_keys.push_back(in->key);
          }
        }
      }
      lineage.output_keys = {hit->key};
      // Rewrite: the node *is* the cached chunk now.
      n->key = hit->key;
      n->executed = true;
      n->band = hit->meta.band;
      n->meta.rows = hit->meta.rows;
      n->meta.cols = hit->meta.cols;
      n->meta.nbytes = hit->meta.nbytes;
      n->meta.rows_exact = true;
      ctx.meta->Put(hit->key, hit->meta);
      ctx.meta->PutLineage(hit->key, lineage);
      gone.insert(n);
      stats.nodes_removed++;
      stats.nodes_rewritten++;
    }

    if (!gone.empty()) {
      std::vector<ChunkNode*> kept;
      kept.reserve(closure->size() - gone.size());
      for (ChunkNode* n : *closure) {
        if (!gone.count(n)) kept.push_back(n);
      }
      *closure = std::move(kept);
    }
    return stats;
  }
};

}  // namespace

std::unique_ptr<ChunkPass> MakeChunkPass(const std::string& name) {
  if (name == kPassOpFusion) return std::make_unique<OpFusionPass>();
  if (name == kPassCse) return std::make_unique<CsePass>();
  if (name == kPassResultCache) return std::make_unique<ResultCachePass>();
  return nullptr;
}

}  // namespace xorbits::optimizer
