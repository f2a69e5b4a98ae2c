#include "replay.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "assignment/hungarian.h"
#include "distance/myers.h"
#include "massjoin/mass_join.h"
#include "text/tokenizer.h"
#include "tokenized/bounds.h"
#include "tokenized/corpus.h"
#include "tokenized/sld.h"
#include "tokenized/token_pair_cache.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

struct SpanTotal {
  double seconds = 0;
  uint64_t calls = 0;
};

// Sums spans per layer name. Each span covers a batch of `calls` calls.
class Tracer {
 public:
  template <typename Fn>
  void Span(const std::string& name, uint64_t calls, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    SpanTotal& total = totals_[name];
    total.seconds += elapsed.count();
    total.calls += calls;
  }

  const SpanTotal& Get(const std::string& name) { return totals_[name]; }

 private:
  std::map<std::string, SpanTotal> totals_;
};

// One corpus of the replay, with its tokens mapped into the joint token
// space of the join (identical to the corpus's own ids for a self-join).
struct Side {
  tsj::Corpus corpus;
  std::vector<uint32_t> joint;                  // corpus token -> joint id
  std::vector<std::vector<uint32_t>> postings;  // joint id -> string ids
};

std::vector<std::string_view> SplitLines(const std::string& text) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.emplace_back(text.data() + start, end - start);
    start = end + 1;
  }
  return lines;
}

void BuildSide(const std::string& text, Tracer* tracer, Side* side) {
  const std::vector<std::string_view> lines = SplitLines(text);
  const tsj::Tokenizer tokenizer;
  std::vector<tsj::TokenizedString> tokenized(lines.size());
  tracer->Span("text.tokenize", lines.size(), [&] {
    for (size_t i = 0; i < lines.size(); ++i) {
      tokenized[i] = tokenizer.Tokenize(lines[i]);
    }
  });
  tracer->Span("corpus.intern", lines.size(), [&] {
    for (const tsj::TokenizedString& tokens : tokenized) {
      side->corpus.AddString(tokens);
    }
  });
}

}  // namespace

ReplayResult RunReplay(const ReplayInput& input) {
  Tracer tracer;
  const bool self_join = input.right_text == nullptr;
  const double t = input.threshold;

  // ---- text + tokenized: corpora and token frequencies. ----------------
  Side left, right_storage;
  BuildSide(*input.left_text, &tracer, &left);
  if (!self_join) BuildSide(*input.right_text, &tracer, &right_storage);
  Side& right = self_join ? left : right_storage;

  std::vector<std::vector<uint32_t>> side_frequencies;
  tracer.Span("corpus.token_frequencies", self_join ? 1 : 2, [&] {
    side_frequencies.push_back(left.corpus.ComputeTokenStringFrequencies());
    if (!self_join) {
      side_frequencies.push_back(right.corpus.ComputeTokenStringFrequencies());
    }
  });

  std::unordered_map<std::string_view, uint32_t> joint_ids;
  std::vector<std::string_view> joint_texts;
  std::vector<uint32_t> joint_frequency;
  auto map_side = [&](Side* side, const std::vector<uint32_t>& frequency) {
    side->joint.resize(side->corpus.num_distinct_tokens());
    for (uint32_t token = 0; token < side->joint.size(); ++token) {
      const std::string& text = side->corpus.token_text(token);
      auto [it, inserted] = joint_ids.emplace(
          text, static_cast<uint32_t>(joint_texts.size()));
      if (inserted) {
        joint_texts.push_back(text);
        joint_frequency.push_back(0);
      }
      side->joint[token] = it->second;
      joint_frequency[it->second] += frequency[token];
    }
  };
  map_side(&left, side_frequencies[0]);
  if (!self_join) map_side(&right, side_frequencies[1]);
  const size_t num_joint = joint_texts.size();
  std::vector<char> surviving(num_joint, 0);
  for (size_t token = 0; token < num_joint; ++token) {
    surviving[token] = joint_frequency[token] <= input.max_token_frequency;
  }

  // ---- massjoin: similar surviving tokens. -----------------------------
  std::vector<std::string> token_texts;
  std::vector<uint32_t> joint_of_index;
  for (uint32_t token = 0; token < num_joint; ++token) {
    if (surviving[token]) {
      token_texts.emplace_back(joint_texts[token]);
      joint_of_index.push_back(token);
    }
  }
  tsj::MassJoinOptions mass_options;
  mass_options.mapreduce.num_workers = 1;
  std::vector<tsj::NldPair> token_pairs;
  std::string massjoin_error;
  tracer.Span("massjoin.similar_tokens", 1, [&] {
    auto pairs = tsj::RunMassJoinSelfNld(token_texts, t, mass_options);
    if (pairs.ok()) {
      token_pairs = std::move(pairs).value();
    } else {
      massjoin_error = pairs.status().ToString();
    }
  });
  if (!massjoin_error.empty()) {
    ReplayResult failed;
    failed.error = "replay massjoin: " + massjoin_error;
    return failed;
  }
  std::vector<std::vector<uint32_t>> neighbors(num_joint);
  for (const tsj::NldPair& pair : token_pairs) {
    const uint32_t u = joint_of_index[pair.a];
    const uint32_t v = joint_of_index[pair.b];
    neighbors[u].push_back(v);
    neighbors[v].push_back(u);
  }

  // ---- Postings of the surviving tokens on the right side. -------------
  right.postings.assign(num_joint, {});
  std::vector<uint32_t> distinct;
  auto distinct_surviving = [&](const Side& side, uint32_t s) {
    distinct.clear();
    for (tsj::TokenId token : side.corpus.tokens(s)) {
      if (surviving[side.joint[token]]) distinct.push_back(side.joint[token]);
    }
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
  };
  for (uint32_t s = 0; s < right.corpus.size(); ++s) {
    distinct_surviving(right, s);
    for (uint32_t token : distinct) right.postings[token].push_back(s);
  }

  // ---- Per left string: candidates, filters, verify, kernel, solver. ---
  ReplayResult result;
  tsj::TokenPairCache cache;
  tsj::SldVerifyScratch scratch;
  tsj::TokenizedString x_bytes, y_bytes;
  std::vector<uint32_t> partners, after_length, survivors;
  std::vector<uint32_t> edge_costs;
  std::vector<std::vector<int64_t>> matrices;
  std::vector<uint64_t> edge_seen((num_joint * num_joint + 63) / 64, 0);
  uint64_t edges = 0, distinct_edges = 0;

  for (uint32_t a = 0; a < left.corpus.size(); ++a) {
    partners.clear();
    distinct_surviving(left, a);
    for (uint32_t u : distinct) {
      partners.insert(partners.end(), right.postings[u].begin(),
                      right.postings[u].end());
      for (uint32_t v : neighbors[u]) {
        partners.insert(partners.end(), right.postings[v].begin(),
                        right.postings[v].end());
      }
    }
    if (self_join) {
      partners.erase(std::remove_if(partners.begin(), partners.end(),
                                    [a](uint32_t b) { return b <= a; }),
                     partners.end());
    }
    if (partners.empty()) continue;
    std::sort(partners.begin(), partners.end());
    partners.erase(std::unique(partners.begin(), partners.end()),
                   partners.end());
    result.distinct_candidates += partners.size();

    const size_t len_a = left.corpus.aggregate_length(a);
    after_length.clear();
    tracer.Span("bounds.length_filter", partners.size(), [&] {
      for (uint32_t b : partners) {
        if (tsj::NsldLowerBoundFromAggregateLengths(
                len_a, right.corpus.aggregate_length(b)) <= t) {
          after_length.push_back(b);
        }
      }
    });
    if (after_length.empty()) continue;
    const std::vector<uint32_t>& hist_a = left.corpus.length_histogram(a);
    survivors.clear();
    tracer.Span("bounds.histogram_filter", after_length.size(), [&] {
      for (uint32_t b : after_length) {
        if (tsj::NsldLowerBoundFromHistograms(
                hist_a, right.corpus.length_histogram(b)) <= t) {
          survivors.push_back(b);
        }
      }
    });
    if (survivors.empty()) continue;
    result.filter_survivors += survivors.size();

    // sld: budgeted verification, as the join's verify stage runs it.
    const std::vector<tsj::TokenId>& x = left.corpus.tokens(a);
    if (self_join) {
      tracer.Span("sld.verify", survivors.size(), [&] {
        for (uint32_t b : survivors) {
          const int64_t budget = tsj::SldBudgetFromThreshold(
              t, len_a, right.corpus.aggregate_length(b));
          const tsj::BoundedSldResult r = tsj::BoundedSld(
              left.corpus, std::span<const tsj::TokenId>(x),
              std::span<const tsj::TokenId>(right.corpus.tokens(b)), budget,
              tsj::TokenAligning::kExact, &scratch, &cache);
          result.accepted += r.within_budget;
        }
        scratch.l1.FlushIfBatchReady(&cache);
      });
    } else {
      left.corpus.MaterializeInto(a, &x_bytes);
      tracer.Span("sld.verify", survivors.size(), [&] {
        for (uint32_t b : survivors) {
          right.corpus.MaterializeInto(b, &y_bytes);
          const int64_t budget = tsj::SldBudgetFromThreshold(
              t, len_a, right.corpus.aggregate_length(b));
          const tsj::BoundedSldResult r = tsj::BoundedSld(
              x_bytes, y_bytes, budget, tsj::TokenAligning::kExact, &scratch);
          result.accepted += r.within_budget;
        }
      });
    }

    // distance: every edge of every survivor's token bigraph, unbudgeted.
    edge_costs.clear();
    size_t batch_edges = 0;
    for (uint32_t b : survivors) {
      batch_edges += x.size() * right.corpus.tokens(b).size();
    }
    tracer.Span("distance.kernel", batch_edges, [&] {
      for (uint32_t b : survivors) {
        for (tsj::TokenId xi : x) {
          const std::string& xt = left.corpus.token_text(xi);
          for (tsj::TokenId yj : right.corpus.tokens(b)) {
            edge_costs.push_back(
                tsj::MyersLevenshtein(xt, right.corpus.token_text(yj)));
          }
        }
      }
    });
    edges += edge_costs.size();
    for (uint32_t b : survivors) {
      for (tsj::TokenId xi : x) {
        for (tsj::TokenId yj : right.corpus.tokens(b)) {
          uint64_t u = left.joint[xi], v = right.joint[yj];
          if (u > v) std::swap(u, v);
          const uint64_t bit = u * num_joint + v;
          if (!(edge_seen[bit / 64] >> (bit % 64) & 1)) {
            edge_seen[bit / 64] |= uint64_t{1} << (bit % 64);
            ++distinct_edges;
          }
        }
      }
    }

    // assignment: the padded bigraphs of those edges, solved exactly.
    matrices.resize(survivors.size());
    size_t edge = 0;
    for (size_t i = 0; i < survivors.size(); ++i) {
      const std::vector<tsj::TokenId>& y = right.corpus.tokens(survivors[i]);
      const size_t n = std::max(x.size(), y.size());
      std::vector<int64_t>& m = matrices[i];
      m.assign(n * n, 0);
      for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < n; ++c) {
          if (r < x.size() && c < y.size()) {
            m[r * n + c] = edge_costs[edge++];
          } else if (r < x.size()) {
            m[r * n + c] = left.corpus.token_length(x[r]);
          } else if (c < y.size()) {
            m[r * n + c] = right.corpus.token_length(y[c]);
          }
        }
      }
    }
    tracer.Span("assignment.solve", survivors.size(), [&] {
      for (size_t i = 0; i < survivors.size(); ++i) {
        const size_t n = std::max(
            x.size(), right.corpus.tokens(survivors[i]).size());
        tsj::SolveAssignment(matrices[i], n);
      }
    });
  }
  if (self_join) scratch.l1.Flush(&cache);

  // ---- Report. ----------------------------------------------------------
  auto span = [&](const std::string& layer) {
    const SpanTotal& total = tracer.Get(layer);
    result.metrics.push_back({"trace." + layer + "_s", total.seconds, "s"});
    result.metrics.push_back({"trace." + layer + "_calls",
                              static_cast<double>(total.calls), "count"});
  };
  span("text.tokenize");
  span("corpus.intern");
  span("corpus.token_frequencies");
  span("massjoin.similar_tokens");
  result.metrics.push_back({"trace.massjoin.similar_token_pairs",
                            static_cast<double>(token_pairs.size()),
                            "count"});
  span("bounds.length_filter");
  span("bounds.histogram_filter");
  span("sld.verify");
  span("distance.kernel");
  result.metrics.push_back(
      {"trace.verify.edges", static_cast<double>(edges), "count"});
  result.metrics.push_back({"trace.verify.distinct_edges",
                            static_cast<double>(distinct_edges), "count"});
  span("assignment.solve");
  result.attributed_reduce_s = tracer.Get("bounds.length_filter").seconds +
                               tracer.Get("bounds.histogram_filter").seconds +
                               tracer.Get("sld.verify").seconds;
  return result;
}

}  // namespace perfbench
