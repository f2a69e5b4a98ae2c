// Input generator of the benchmark. It is written here, not taken from the
// library's workload module, so that the inputs stay fixed while the
// library changes: the program under test only ever sees the text lines
// this file produces.
//
// The model follows the account population of the paper's Sec. I-A: a
// Zipf-popular vocabulary of syllable tokens (a quarter of them one-edit
// variants of earlier tokens), names of a few tokens each, and planted
// fraud rings whose members are adversarially edited copies of one name.
// The vocabulary comes from a fixed seed; the workload seed drives which
// names are drawn and how ring members are edited.

#ifndef PERFBENCH_GENERATOR_H_
#define PERFBENCH_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a small, fully specified generator, so a seed gives the
/// same inputs on every platform and standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  uint64_t Uniform(uint64_t bound);
  /// Uniform in [lo, hi].
  size_t UniformIn(size_t lo, size_t hi) { return lo + Uniform(hi - lo + 1); }
  /// Uniform in [0, 1).
  double NextDouble();
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  uint64_t state_;
};

/// One generated string: its tokens, in order.
using Tokens = std::vector<std::string>;

struct GeneratorOptions {
  // Vocabulary.
  size_t vocabulary_size = 4000;
  double zipf_skew = 0.9;
  size_t min_syllables = 1;
  size_t max_syllables = 4;
  double variant_fraction = 0.25;
  uint64_t vocabulary_seed = 20190321;
  // Names.
  size_t min_tokens = 1;
  size_t max_tokens = 4;
  // Planted rings; they fill the first ids of the output.
  size_t num_rings = 40;
  size_t min_ring_size = 3;
  size_t max_ring_size = 8;
  // Edits applied to ring members other than the first.
  size_t min_char_edits = 1;
  size_t max_char_edits = 2;
  double shuffle_probability = 0.5;
  double boundary_shift_probability = 0.15;
  double abbreviate_probability = 0.1;
  double drop_token_probability = 0.05;
};

/// Generates `count` strings from `seed`. Deterministic.
std::vector<Tokens> GenerateStrings(const GeneratorOptions& options,
                                    size_t count, uint64_t seed);

/// One text line per string: its tokens joined by single spaces.
std::string JoinLines(const std::vector<Tokens>& strings);

/// Derives an independent stream seed from a seed and a salt.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATOR_H_
