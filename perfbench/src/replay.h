// Traced per-layer replay. It runs one workload's join again, one layer
// at a time and on one thread, through the public functions of the
// library's `text`, `tokenized`, `massjoin`, `distance` and `assignment`
// modules, and records a span around each batch of calls into a layer.
//
// The spans live in memory and are summed per layer into a self time and
// a call count. No replay span nests inside another, so a layer's self
// time is its spans' total duration. Candidate generation (postings and
// similar-token expansion) is the benchmark's own code and is not timed.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>

#include "metrics.h"

namespace perfbench {

struct ReplayInput {
  /// Newline-separated text lines of the (left) corpus.
  const std::string* left_text = nullptr;
  /// Lines of the right corpus of an R-S join; null for a self-join.
  const std::string* right_text = nullptr;
  double threshold = 0.1;
  uint32_t max_token_frequency = 1000;
};

struct ReplayResult {
  /// Non-empty when a library call of the replay failed.
  std::string error;
  /// trace.* metrics, named as in BENCHMARK.json.
  Metrics metrics;
  /// Distinct candidate pairs the replay generated.
  uint64_t distinct_candidates = 0;
  /// Candidates left after the length and histogram filters.
  uint64_t filter_survivors = 0;
  /// Survivors BoundedSld accepted: the join's result size.
  uint64_t accepted = 0;
  /// Seconds spent in the length filter, histogram filter and BoundedSld
  /// spans: the part of the dedup/verify reduce the replay attributes.
  double attributed_reduce_s = 0;
};

ReplayResult RunReplay(const ReplayInput& input);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
