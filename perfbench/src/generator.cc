#include "generator.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

namespace perfbench {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t SplitMix64::Uniform(uint64_t bound) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

double SplitMix64::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  SplitMix64 rng(seed ^ (salt * 0xd1b54a32d192ed03ULL));
  return rng.Next();
}

namespace {

constexpr char kConsonants[] = "bcdfghjklmnprstvwyz";
constexpr char kVowels[] = "aeiou";
constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz";

char Pick(const char* letters, size_t count, SplitMix64* rng) {
  return letters[rng->Uniform(count)];
}

std::string Syllable(SplitMix64* rng) {
  std::string s;
  s.push_back(Pick(kConsonants, sizeof(kConsonants) - 1, rng));
  s.push_back(Pick(kVowels, sizeof(kVowels) - 1, rng));
  if (rng->Bernoulli(0.35)) {
    s.push_back(Pick(kConsonants, sizeof(kConsonants) - 1, rng));
  }
  return s;
}

// One random character insert, delete or substitute; never empties a token.
void EditToken(std::string* token, SplitMix64* rng) {
  const char c = Pick(kAlphabet, 26, rng);
  const uint64_t op = rng->Uniform(3);
  if (op == 0 || token->empty()) {
    token->insert(token->begin() + static_cast<ptrdiff_t>(
                                       rng->Uniform(token->size() + 1)),
                  c);
  } else if (op == 1 && token->size() > 1) {
    token->erase(token->begin() +
                 static_cast<ptrdiff_t>(rng->Uniform(token->size())));
  } else {
    (*token)[rng->Uniform(token->size())] = c;
  }
}

std::vector<std::string> MakeVocabulary(const GeneratorOptions& options) {
  SplitMix64 rng(options.vocabulary_seed);
  std::unordered_set<std::string> seen;
  std::vector<std::string> vocabulary;
  vocabulary.reserve(options.vocabulary_size);
  while (vocabulary.size() < options.vocabulary_size) {
    std::string token;
    if (!vocabulary.empty() && rng.Bernoulli(options.variant_fraction)) {
      token = vocabulary[rng.Uniform(vocabulary.size())];
      EditToken(&token, &rng);
    } else {
      const size_t syllables =
          rng.UniformIn(options.min_syllables, options.max_syllables);
      for (size_t i = 0; i < syllables; ++i) token += Syllable(&rng);
    }
    if (seen.insert(token).second) vocabulary.push_back(std::move(token));
  }
  return vocabulary;
}

// Cumulative Zipf weights over ranks 0..n-1 (rank r has weight 1/(r+1)^s).
std::vector<double> ZipfCdf(size_t n, double skew) {
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), skew);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

Tokens Perturb(Tokens name, const GeneratorOptions& options,
               SplitMix64* rng) {
  if (name.size() >= 2 && rng->Bernoulli(options.boundary_shift_probability)) {
    const size_t i = rng->Uniform(name.size() - 1);
    if (name[i + 1].size() > 1) {
      name[i].push_back(name[i + 1].front());
      name[i + 1].erase(name[i + 1].begin());
    }
  }
  if (rng->Bernoulli(options.abbreviate_probability)) {
    std::string& token = name[rng->Uniform(name.size())];
    if (token.size() > 1) token.resize(1);
  }
  if (name.size() > 1 && rng->Bernoulli(options.drop_token_probability)) {
    name.erase(name.begin() +
               static_cast<ptrdiff_t>(rng->Uniform(name.size())));
  }
  const size_t edits =
      rng->UniformIn(options.min_char_edits, options.max_char_edits);
  for (size_t e = 0; e < edits; ++e) {
    EditToken(&name[rng->Uniform(name.size())], rng);
  }
  if (rng->Bernoulli(options.shuffle_probability)) {
    for (size_t i = name.size() - 1; i > 0; --i) {
      std::swap(name[i], name[rng->Uniform(i + 1)]);
    }
  }
  return name;
}

}  // namespace

std::vector<Tokens> GenerateStrings(const GeneratorOptions& options,
                                    size_t count, uint64_t seed) {
  const std::vector<std::string> vocabulary = MakeVocabulary(options);
  const std::vector<double> cdf =
      ZipfCdf(vocabulary.size(), options.zipf_skew);
  SplitMix64 rng(seed);
  auto sample = [&]() {
    Tokens name(rng.UniformIn(options.min_tokens, options.max_tokens));
    for (std::string& token : name) {
      const size_t rank = static_cast<size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), rng.NextDouble()) -
          cdf.begin());
      token = vocabulary[std::min(rank, vocabulary.size() - 1)];
    }
    return name;
  };

  std::vector<Tokens> strings;
  strings.reserve(count);
  for (size_t ring = 0; ring < options.num_rings && strings.size() < count;
       ++ring) {
    const size_t size =
        rng.UniformIn(options.min_ring_size, options.max_ring_size);
    Tokens base;
    do {
      base = sample();
    } while (base.size() < 2);
    for (size_t m = 0; m < size && strings.size() < count; ++m) {
      strings.push_back(m == 0 ? base : Perturb(base, options, &rng));
    }
  }
  while (strings.size() < count) strings.push_back(sample());
  return strings;
}

std::string JoinLines(const std::vector<Tokens>& strings) {
  std::string text;
  for (const Tokens& tokens : strings) {
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (i > 0) text.push_back(' ');
      text += tokens[i];
    }
    text.push_back('\n');
  }
  return text;
}

}  // namespace perfbench
