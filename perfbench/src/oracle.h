// Correctness oracle of the benchmark. It shares no distance code with the
// library: a plain dynamic-programming Levenshtein distance, NLD, and SLD
// as an exhaustive minimum over padded token matchings (Def. 3 of the
// paper, at most kMaxTokens tokens a side).
//
// Two checks run on a join's output:
//   * precision, on every pair: ids in range, no duplicates, a < b for a
//     self-join, the reported NSLD equal to the recomputed one within
//     1e-9, and at most T;
//   * exact recall, on a fixed sample of key strings, by brute force
//     against the whole other side. A pair is expected when its NSLD is
//     at most T and it holds a token pair of NLD at most T whose two
//     tokens each occur in at most M strings (counted over both sides of
//     an R-S join). That is the candidate rule of Sec. III-C/D with the M
//     cutoff of Sec. III-G.2, so any correct TSJ finds every such pair.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "generator.h"

namespace perfbench {

/// One output pair as the join reported it.
struct OutPair {
  uint32_t a = 0;
  uint32_t b = 0;
  double nsld = 0;
};

class Oracle {
 public:
  static constexpr size_t kMaxTokens = 6;

  /// `right` is null for a self-join. Both vectors must outlive the oracle.
  Oracle(const std::vector<Tokens>& left, const std::vector<Tokens>* right,
         double threshold, uint32_t max_token_frequency);

  /// Returns an empty string when the check passes, else what failed.
  std::string CheckPrecision(const std::vector<OutPair>& pairs) const;

  /// Checks recall for the sampled keys. `expected_pairs` (optional)
  /// receives how many expected pairs the sampled keys have (a pair of two
  /// sampled keys counts twice).
  std::string CheckRecall(const std::vector<OutPair>& pairs,
                          size_t* expected_pairs) const;

 private:
  struct Side {
    std::vector<std::vector<uint32_t>> strings;  // oracle token ids
    std::vector<size_t> lengths;                 // aggregate lengths
  };

  void AddSide(const std::vector<Tokens>& strings, Side* side);
  /// NSLD between left string `a` and right string `b`.
  double Nsld(uint32_t a, uint32_t b) const;
  double NsldOf(const std::vector<uint32_t>& x, size_t lx,
                const std::vector<uint32_t>& y, size_t ly) const;
  std::string RecallForKey(const Side& key_side, uint32_t key,
                           const Side& other, bool key_is_left,
                           const std::vector<uint64_t>& output,
                           size_t* expected) const;

  double threshold_;
  uint32_t max_token_frequency_;
  bool self_join_;
  std::vector<std::string> token_texts_;
  std::vector<uint32_t> frequency_;  // strings containing each token
  Side left_;
  Side right_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
