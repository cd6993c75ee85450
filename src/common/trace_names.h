#ifndef XORBITS_COMMON_TRACE_NAMES_H_
#define XORBITS_COMMON_TRACE_NAMES_H_

/// Central registry of every span, event, and named-metric identifier the
/// observability layer emits. All emitting sites reference these constants
/// instead of string literals so that (a) names cannot drift between the
/// code and OBSERVABILITY.md and (b) `tools/docs_check.sh` can grep this
/// one file and fail the `docs_check` ctest when a name is missing from
/// the reference. Add a new name here + a row in OBSERVABILITY.md together.
///
/// Naming scheme: `<subsystem>:<what>`; spans that embed a dynamic suffix
/// (operator type, chunk key) are declared as `k...Prefix` constants and
/// documented as `prefix<suffix>`.

#define XORBITS_SPAN_NAME(ident, str) inline constexpr char ident[] = str;
#define XORBITS_EVENT_NAME(ident, str) inline constexpr char ident[] = str;
#define XORBITS_METRIC_NAME(ident, str) inline constexpr char ident[] = str;

namespace xorbits::trace {

// --- spans (Chrome "X" complete events) ---
XORBITS_SPAN_NAME(kSpanMaterialize, "materialize")
XORBITS_SPAN_NAME(kSpanColumnPruning, "optimize:column_pruning")
XORBITS_SPAN_NAME(kSpanTilePrefix, "tile:")
XORBITS_SPAN_NAME(kSpanExecutePartial, "execute_partial")
XORBITS_SPAN_NAME(kSpanOpFusion, "optimize:op_fusion")
XORBITS_SPAN_NAME(kSpanGraphFusion, "optimize:graph_fusion")
// Every optimizer pass emits one span per run, named `optimize:<pass>`;
// the three constants above cover the migrated passes, these the new ones.
XORBITS_SPAN_NAME(kSpanPassPrefix, "optimize:")
XORBITS_SPAN_NAME(kSpanPredicatePushdown, "optimize:predicate_pushdown")
XORBITS_SPAN_NAME(kSpanDeadNodeElim, "optimize:dead_node_elim")
XORBITS_SPAN_NAME(kSpanCse, "optimize:cse")
XORBITS_SPAN_NAME(kSpanResultCache, "optimize:result_cache")
XORBITS_SPAN_NAME(kSpanScheduleRun, "schedule:run")
XORBITS_SPAN_NAME(kSpanRecoverPrefix, "recover:")
XORBITS_SPAN_NAME(kSpanSubtaskPrefix, "subtask:")
XORBITS_SPAN_NAME(kSpanSpillBackpressure, "storage:spill_backpressure")
XORBITS_SPAN_NAME(kSpanSessionSubmit, "session:submit")
// Pipelined block exchange (DESIGN.md §11): producer-side block push
// (includes any backpressure spill time) and reduce-side partition fetch.
XORBITS_SPAN_NAME(kSpanExchangePush, "exchange:push")
XORBITS_SPAN_NAME(kSpanExchangeFetch, "exchange:fetch")

// --- instant events (Chrome "i" events) ---
XORBITS_EVENT_NAME(kEventAddTileable, "graph:add_tileable")
XORBITS_EVENT_NAME(kEventTileYield, "tile:yield")
XORBITS_EVENT_NAME(kEventPlacement, "schedule:placement")
XORBITS_EVENT_NAME(kEventSubtaskRetry, "subtask:retry")
XORBITS_EVENT_NAME(kEventFaultTransient, "fault:transient")
XORBITS_EVENT_NAME(kEventBandKill, "chaos:band_kill")
XORBITS_EVENT_NAME(kEventChunkLoss, "chaos:chunk_loss")
XORBITS_EVENT_NAME(kEventSpill, "storage:spill")
XORBITS_EVENT_NAME(kEventOom, "storage:oom")
XORBITS_EVENT_NAME(kEventFetch, "fetch:chunks")
XORBITS_EVENT_NAME(kEventSessionCreate, "session:create")
XORBITS_EVENT_NAME(kEventSessionClose, "session:close")
XORBITS_EVENT_NAME(kEventSessionShed, "session:shed")
XORBITS_EVENT_NAME(kEventQuotaExceeded, "storage:quota_exceeded")
XORBITS_EVENT_NAME(kEventCacheEvict, "cache:evict")
XORBITS_EVENT_NAME(kEventCacheInvalidate, "cache:invalidate")
// Pipelined block exchange (DESIGN.md §11): a partition's block stream
// sealed (reducer may start) and a producer throttled by flow control.
XORBITS_EVENT_NAME(kEventExchangeSeal, "exchange:seal")
XORBITS_EVENT_NAME(kEventExchangeBackpressure, "exchange:backpressure")

// --- registry metrics (gauges + histograms; see MetricsRegistry) ---
XORBITS_METRIC_NAME(kHistSubtaskLatencyUs, "subtask_latency_us")
XORBITS_METRIC_NAME(kHistChunkBytes, "chunk_bytes")
XORBITS_METRIC_NAME(kHistQueueWaitUs, "queue_wait_us")
XORBITS_METRIC_NAME(kGaugeBandPeakBytesPrefix, "band_peak_bytes/")
XORBITS_METRIC_NAME(kGaugeBandSpillBytesPrefix, "band_spill_bytes/")
XORBITS_METRIC_NAME(kGaugeBandReplicaBytesPrefix, "band_replica_bytes/")
XORBITS_METRIC_NAME(kGaugeMetaEntries, "meta_entries")
XORBITS_METRIC_NAME(kGaugeLineageEntries, "lineage_entries")
XORBITS_METRIC_NAME(kGaugeBufferBytesShared, "buffer_bytes_shared")
XORBITS_METRIC_NAME(kGaugeChunkCopiesAvoided, "chunk_copies_avoided")
XORBITS_METRIC_NAME(kGaugeBufferCowCopies, "buffer_cow_copies")
XORBITS_METRIC_NAME(kGaugeDictEncodedColumns, "dict_encoded_columns")
XORBITS_METRIC_NAME(kGaugeDictFallbackDecodes, "dict_fallback_decodes")
XORBITS_METRIC_NAME(kGaugeJoinRadixPartitions, "join_radix_partitions")
XORBITS_METRIC_NAME(kGaugeJoinTablesBuilt, "join_tables_built")
// Per-pass pipeline gauges. The suffix `<l><i>_<pass>` encodes the level
// (t/c/s for tileable/chunk/subtask), the position in that level's
// pipeline, and the pass name — e.g. `optimizer_pass_us/t1_column_pruning`
// — so a sorted gauge snapshot reproduces each pipeline in order.
XORBITS_METRIC_NAME(kGaugePassRunsPrefix, "optimizer_pass_runs/")
XORBITS_METRIC_NAME(kGaugePassUsPrefix, "optimizer_pass_us/")
XORBITS_METRIC_NAME(kGaugePassRemovedPrefix, "optimizer_nodes_removed/")
XORBITS_METRIC_NAME(kGaugePassRewrittenPrefix, "optimizer_nodes_rewritten/")
// Multi-tenant serving (DESIGN.md §8): admission queue wait, live/shed
// session counts on the cluster process, and per-session in-memory bytes
// the quota is enforced against.
XORBITS_METRIC_NAME(kHistSessionQueueWaitUs, "session_queue_wait_us")
XORBITS_METRIC_NAME(kGaugeSessionsActive, "sessions_active")
XORBITS_METRIC_NAME(kGaugeSessionsShed, "sessions_shed")
XORBITS_METRIC_NAME(kGaugeSessionBytesPrefix, "session_bytes_used/")
// Result cache (DESIGN.md §9): live bytes/entries in the cluster-level
// `cache/` namespace, charged to result_cache_budget_bytes.
XORBITS_METRIC_NAME(kGaugeCacheBytes, "cache_bytes")
XORBITS_METRIC_NAME(kGaugeCacheEntries, "cache_entries")
// Late materialization (DESIGN.md §10): bytes turned dense (decoded or
// gathered through a selection), forced compactions, lazy column decodes,
// and deferred expression assignments. Session-scoped (counters.def).
XORBITS_METRIC_NAME(kGaugeBytesMaterialized, "bytes_materialized")
XORBITS_METRIC_NAME(kGaugeSelectionsForced, "selections_forced")
XORBITS_METRIC_NAME(kGaugeLazyColumnsDecoded, "lazy_columns_decoded")
XORBITS_METRIC_NAME(kGaugeDeferredTransforms, "deferred_transforms")
// Pipelined block exchange (DESIGN.md §11): compressed wire vs logical
// in-memory shuffle bytes, block lifecycle counts, and producer time lost
// to flow control. Session-scoped (counters.def).
XORBITS_METRIC_NAME(kGaugeShuffleWireBytes, "shuffle_wire_bytes")
XORBITS_METRIC_NAME(kGaugeShuffleMemoryBytes, "shuffle_memory_bytes")
XORBITS_METRIC_NAME(kGaugeShuffleBlocksProduced, "shuffle_blocks_produced")
XORBITS_METRIC_NAME(kGaugeShuffleBlocksConsumed, "shuffle_blocks_consumed")
XORBITS_METRIC_NAME(kGaugeShuffleBlocksSpilled, "shuffle_blocks_spilled")
XORBITS_METRIC_NAME(kGaugeShuffleBlocksRecovered, "shuffle_blocks_recovered")
XORBITS_METRIC_NAME(kGaugeExchangeBackpressureUs, "exchange_backpressure_us")
// Host-wide core budget (DESIGN.md §2a): ParallelFor calls with a pool and
// at least 2 morsels that found every core held and ran inline.
// Session-scoped (counters.def).
XORBITS_METRIC_NAME(kGaugeMorselFanoutsDeclined, "morsel_fanouts_declined")

}  // namespace xorbits::trace

#undef XORBITS_SPAN_NAME
#undef XORBITS_EVENT_NAME
#undef XORBITS_METRIC_NAME

#endif  // XORBITS_COMMON_TRACE_NAMES_H_
