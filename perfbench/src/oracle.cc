#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr size_t kRecallKeysPerSide = 256;
constexpr size_t kRingKeys = 32;  // the generator plants rings first

uint64_t PairKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

double NormalizedFromDistance(uint64_t distance, size_t len_x, size_t len_y) {
  if (distance == 0) return 0.0;
  return 2.0 * static_cast<double>(distance) /
         static_cast<double>(len_x + len_y + distance);
}

std::string Describe(const char* what, const OutPair& p) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: pair (%u, %u) nsld %.17g", what, p.a,
                p.b, p.nsld);
  return buf;
}

// Deterministic sample: the first kRingKeys ids, then evenly spaced ids.
std::vector<uint32_t> SampleKeys(size_t n, size_t keys) {
  std::vector<uint32_t> sample;
  for (size_t i = 0; i < std::min(n, kRingKeys); ++i) {
    sample.push_back(static_cast<uint32_t>(i));
  }
  if (n > kRingKeys && keys > kRingKeys) {
    const size_t spaced = keys - kRingKeys;
    for (size_t i = 0; i < spaced; ++i) {
      const size_t id = kRingKeys + i * (n - kRingKeys) / spaced;
      if (id < n && (sample.empty() || sample.back() < id)) {
        sample.push_back(static_cast<uint32_t>(id));
      }
    }
  }
  return sample;
}

// Plain O(|x|*|y|) Levenshtein distance.
uint32_t OracleLd(const std::string& x, const std::string& y) {
  std::vector<uint32_t> prev(y.size() + 1), cur(y.size() + 1);
  std::iota(prev.begin(), prev.end(), 0u);
  for (size_t i = 1; i <= x.size(); ++i) {
    cur[0] = static_cast<uint32_t>(i);
    for (size_t j = 1; j <= y.size(); ++j) {
      const uint32_t substitute = prev[j - 1] + (x[i - 1] == y[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, substitute});
    }
    std::swap(prev, cur);
  }
  return prev[y.size()];
}

}  // namespace

Oracle::Oracle(const std::vector<Tokens>& left,
               const std::vector<Tokens>* right, double threshold,
               uint32_t max_token_frequency)
    : threshold_(threshold),
      max_token_frequency_(max_token_frequency),
      self_join_(right == nullptr) {
  AddSide(left, &left_);
  if (right != nullptr) AddSide(*right, &right_);
}

void Oracle::AddSide(const std::vector<Tokens>& strings, Side* side) {
  std::unordered_map<std::string, uint32_t> ids;
  for (uint32_t t = 0; t < token_texts_.size(); ++t) ids[token_texts_[t]] = t;
  for (const Tokens& tokens : strings) {
    std::vector<uint32_t> row;
    size_t length = 0;
    for (const std::string& token : tokens) {
      auto [it, inserted] =
          ids.emplace(token, static_cast<uint32_t>(token_texts_.size()));
      if (inserted) {
        token_texts_.push_back(token);
        frequency_.push_back(0);
      }
      row.push_back(it->second);
      length += token.size();
    }
    std::vector<uint32_t> distinct = row;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    for (uint32_t t : distinct) ++frequency_[t];
    side->strings.push_back(std::move(row));
    side->lengths.push_back(length);
  }
}

double Oracle::NsldOf(const std::vector<uint32_t>& x, size_t lx,
                      const std::vector<uint32_t>& y, size_t ly) const {
  const size_t n = std::max(x.size(), y.size());
  if (n > kMaxTokens) return NAN;
  // Pad both sides with empty tokens to n; cost[i][j] = LD(x_i, y_j).
  uint64_t cost[kMaxTokens][kMaxTokens];
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i < x.size() && j < y.size()) {
        cost[i][j] = OracleLd(token_texts_[x[i]], token_texts_[y[j]]);
      } else if (i < x.size()) {
        cost[i][j] = token_texts_[x[i]].size();
      } else if (j < y.size()) {
        cost[i][j] = token_texts_[y[j]].size();
      } else {
        cost[i][j] = 0;
      }
    }
  }
  size_t perm[kMaxTokens];
  std::iota(perm, perm + n, size_t{0});
  uint64_t best = UINT64_MAX;
  do {
    uint64_t total = 0;
    for (size_t i = 0; i < n; ++i) total += cost[i][perm[i]];
    best = std::min(best, total);
  } while (std::next_permutation(perm, perm + n));
  return NormalizedFromDistance(best, lx, ly);
}

double Oracle::Nsld(uint32_t a, uint32_t b) const {
  const Side& right = self_join_ ? left_ : right_;
  return NsldOf(left_.strings[a], left_.lengths[a], right.strings[b],
                right.lengths[b]);
}

std::string Oracle::CheckPrecision(const std::vector<OutPair>& pairs) const {
  const size_t right_size =
      self_join_ ? left_.strings.size() : right_.strings.size();
  std::vector<uint64_t> keys;
  keys.reserve(pairs.size());
  for (const OutPair& p : pairs) {
    if (p.a >= left_.strings.size() || p.b >= right_size) {
      return Describe("id out of range", p);
    }
    if (self_join_ && p.a >= p.b) return Describe("self-join pair not a<b", p);
    const double nsld = Nsld(p.a, p.b);
    if (std::isnan(nsld)) return Describe("string over the token limit", p);
    if (std::fabs(nsld - p.nsld) > 1e-9) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " (oracle %.17g)", nsld);
      return Describe("reported nsld differs", p) + buf;
    }
    if (nsld > threshold_) return Describe("nsld above threshold", p);
    keys.push_back(PairKey(p.a, p.b));
  }
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
    return "duplicate pair in output";
  }
  return "";
}

std::string Oracle::RecallForKey(const Side& key_side, uint32_t key,
                                 const Side& other, bool key_is_left,
                                 const std::vector<uint64_t>& output,
                                 size_t* expected) const {
  // Tokens of `other` that form an eligible pair with NLD <= T with some
  // eligible token of the key.
  std::vector<char> similar(token_texts_.size(), 0);
  bool any = false;
  for (uint32_t s : key_side.strings[key]) {
    if (frequency_[s] > max_token_frequency_) continue;
    const std::string& st = token_texts_[s];
    for (uint32_t t = 0; t < token_texts_.size(); ++t) {
      if (similar[t] || frequency_[t] > max_token_frequency_) continue;
      const std::string& tt = token_texts_[t];
      const size_t diff = st.size() > tt.size() ? st.size() - tt.size()
                                                : tt.size() - st.size();
      if (NormalizedFromDistance(diff, st.size(), tt.size()) > threshold_) {
        continue;
      }
      if (NormalizedFromDistance(OracleLd(st, tt), st.size(), tt.size()) <=
          threshold_) {
        similar[t] = 1;
        any = true;
      }
    }
  }
  if (!any) return "";
  const std::vector<uint32_t>& x = key_side.strings[key];
  const size_t lx = key_side.lengths[key];
  for (uint32_t j = 0; j < other.strings.size(); ++j) {
    if (self_join_ && j == key) continue;
    const std::vector<uint32_t>& y = other.strings[j];
    if (std::none_of(y.begin(), y.end(),
                     [&](uint32_t t) { return similar[t] != 0; })) {
      continue;
    }
    // SLD >= |L(x) - L(y)|: a lossless skip.
    const size_t ly = other.lengths[j];
    if (NormalizedFromDistance(lx > ly ? lx - ly : ly - lx, lx, ly) >
        threshold_) {
      continue;
    }
    if (!(NsldOf(x, lx, y, ly) <= threshold_)) continue;
    uint32_t a = key_is_left ? key : j;
    uint32_t b = key_is_left ? j : key;
    if (self_join_ && a > b) std::swap(a, b);
    ++*expected;
    if (!std::binary_search(output.begin(), output.end(), PairKey(a, b))) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "recall: expected pair (%u, %u) missing", a, b);
      return buf;
    }
  }
  return "";
}

std::string Oracle::CheckRecall(const std::vector<OutPair>& pairs,
                                size_t* expected_pairs) const {
  std::vector<uint64_t> output;
  output.reserve(pairs.size());
  for (const OutPair& p : pairs) output.push_back(PairKey(p.a, p.b));
  std::sort(output.begin(), output.end());

  size_t expected = 0;
  auto check_side = [&](const Side& key_side, const Side& other,
                        bool key_is_left, size_t keys) -> std::string {
    for (uint32_t key : SampleKeys(key_side.strings.size(), keys)) {
      std::string error =
          RecallForKey(key_side, key, other, key_is_left, output, &expected);
      if (!error.empty()) return error;
    }
    return "";
  };
  std::string error;
  if (self_join_) {
    error = check_side(left_, left_, true, kRecallKeysPerSide);
  } else {
    error = check_side(left_, right_, true, kRecallKeysPerSide / 2);
    if (error.empty()) {
      error = check_side(right_, left_, false, kRecallKeysPerSide / 2);
    }
  }
  if (expected_pairs != nullptr) *expected_pairs = expected;
  return error;
}

}  // namespace perfbench
