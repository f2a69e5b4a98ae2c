// V-SMART-Join-style MapReduce all-pair similarity join for multisets,
// after Metwally & Faloutsos, "V-SMART-Join: A Scalable MapReduce
// Framework for All-Pair Similarity Joins of Multisets and Vectors"
// (VLDB 2012) — the paper's [45], by the same first author.
//
// The family splits the join into a *joining* phase that computes partial
// per-token contributions of every candidate pair and a *similarity* phase
// that aggregates them into the final measure — which is exactly how the
// two MapReduce jobs below are organized:
//   Job 1: token -> postings (set id, token multiplicity, set cardinality);
//          the reducer emits one partial min-contribution per co-occurring
//          pair per token.
//   Job 2: group by pair; the aggregated overlap plus the two cardinalities
//          determine Jaccard/Dice/Cosine exactly; pairs below the threshold
//          are dropped.
// Like the other set-based joins (Sec. IV), it is exact for shuffles and
// blind to token edits; it serves as a distributed set-join baseline and
// as a building block for custom multiset measures.

#ifndef TSJ_SETJOIN_VSMART_JOIN_H_
#define TSJ_SETJOIN_VSMART_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mapreduce/job_stats.h"
#include "mapreduce/mapreduce.h"
#include "setjoin/prefix_filter_join.h"

namespace tsj {

/// Multiset similarity measure computed by the join.
enum class MultisetMeasure {
  kJaccard,  // sum-min / sum-max
  kDice,     // 2 * sum-min / (|x| + |y|)
  kCosine,   // dot / (||x|| * ||y||), counts as vector components
};

/// V-SMART join configuration.
struct VsmartOptions {
  MultisetMeasure measure = MultisetMeasure::kJaccard;
  /// Tokens occurring in more than this many multisets are ignored (the
  /// same frequency cutoff idea as TSJ's M; 0 disables).
  uint32_t max_token_frequency = 0;
  MapReduceOptions mapreduce;
  /// Skew-adaptive shuffle partitioning (mapreduce/cluster_model.h): the
  /// joining phase plans its partition count from the token-frequency
  /// profile it computes anyway (a token shared by f multisets costs
  /// f*(f-1)/2 partial emissions — the same quadratic hot-key shape as
  /// TSJ's shared-token reduce), the similarity phase from its pair-key
  /// profile; mapreduce.num_partitions stays the fallback/off value.
  /// Lossless: results are partition-count-invariant.
  bool adaptive_partitions = true;
  /// External-memory shuffle spill (mapreduce/spill.h): when enabled AND
  /// mapreduce.memory_budget_records is set, both phases bound their
  /// resident shuffle records by the budget (sorted runs on disk, k-way
  /// merge at reduce time). Lossless. Off by default (the budget is then
  /// ignored). VsmartSelfJoin returns a plain vector, so spill faults
  /// surface through the JobStats::spill_status / spill_data_loss
  /// entries in `stats` (the latter means possibly incomplete output).
  bool enable_shuffle_spill = false;
  /// Checkpoint/restart (mapreduce.h "Checkpoint validity"; same
  /// semantics as TsjOptions::enable_checkpointing): when enabled AND
  /// mapreduce.checkpoint_dir is set, both phases seal completed map
  /// tasks under that directory and a restarted run over the same
  /// multisets skips tasks whose checkpoint validates. A zero
  /// mapreduce.checkpoint_fingerprint is derived from the multisets'
  /// token ids, the threshold and the measure. Off by default: the
  /// engine-level dir is stripped unless this is set.
  bool enable_checkpointing = false;
};

/// One joined pair of multiset indices (a < b) with its similarity.
struct VsmartPair {
  uint32_t a = 0;
  uint32_t b = 0;
  double similarity = 0;
};

/// Self-joins `multisets` (vectors of token ids; duplicates meaningful):
/// all pairs with similarity >= threshold under the chosen measure
/// (0 < threshold <= 1). Exact (up to the frequency cutoff, which only
/// removes pairs). Per-job statistics appended to `stats` if non-null.
std::vector<VsmartPair> VsmartSelfJoin(
    const std::vector<std::vector<uint32_t>>& multisets, double threshold,
    const VsmartOptions& options = {}, PipelineStats* stats = nullptr);

/// Status-returning entry point with the same fault contract as
/// TokenizedStringJoiner::SelfJoin and HybridMetricJoiner::SelfJoin: a
/// lossy spill fault (failed run read — outputs may be incomplete) or a
/// fatal task error (a job aborted; see the fault-tolerance contract in
/// mapreduce.h) fails the join with the root-cause Status; degraded
/// write faults and retry-absorbed task failures keep their complete
/// results and surface only through `stats` (JobStats::spill_status and
/// the task counters). VsmartSelfJoin above is the legacy thin wrapper
/// that drops the Status.
StatusOr<std::vector<VsmartPair>> RunVsmartSelfJoin(
    const std::vector<std::vector<uint32_t>>& multisets, double threshold,
    const VsmartOptions& options = {}, PipelineStats* stats = nullptr);

}  // namespace tsj

#endif  // TSJ_SETJOIN_VSMART_JOIN_H_
