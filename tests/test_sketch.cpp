// One-sparse recovery cells and the l0-sampler: recovery, linearity,
// cancellation, live depths and the prefix-truncated wire form, failure
// rates.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "sketch/l0_sampler.hpp"
#include "util/prime_field.hpp"
#include "util/random.hpp"

namespace kmm {
namespace {

constexpr std::uint64_t kUniverse = 1 << 20;

std::uint64_t rpow(std::uint64_t r, std::uint64_t i) { return fp::pow(r, i); }

TEST(OneSparse, RecoversSingleEntry) {
  const std::uint64_t r = 987654321;
  for (const int value : {1, -1}) {
    OneSparseCell cell;
    cell.update(777, value, rpow(r, 777));
    const auto rec = cell.recover(r, kUniverse);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->index, 777u);
    EXPECT_EQ(rec->value, value);
  }
}

TEST(OneSparse, RejectsTwoEntries) {
  const std::uint64_t r = 13371337;
  OneSparseCell cell;
  cell.update(10, 1, rpow(r, 10));
  cell.update(20, 1, rpow(r, 20));
  EXPECT_FALSE(cell.recover(r, kUniverse).has_value());
}

TEST(OneSparse, RejectsCancelingPairPlusOne) {
  // s0 == 1 but the vector has three nonzero contributions: the
  // fingerprint must reject.
  const std::uint64_t r = 555666777;
  OneSparseCell cell;
  cell.update(10, 1, rpow(r, 10));
  cell.update(20, 1, rpow(r, 20));
  cell.update(30, -1, rpow(r, 30));
  EXPECT_EQ(cell.s0(), 1);
  EXPECT_FALSE(cell.recover(r, kUniverse).has_value());
}

TEST(OneSparse, CancellationGivesZero) {
  const std::uint64_t r = 42424242;
  OneSparseCell cell;
  cell.update(99, 1, rpow(r, 99));
  cell.update(99, -1, rpow(r, 99));
  EXPECT_TRUE(cell.all_zero());
  EXPECT_FALSE(cell.recover(r, kUniverse).has_value());
}

TEST(OneSparse, AddIsLinear) {
  const std::uint64_t r = 31415926;
  OneSparseCell a, b, direct;
  a.update(5, 1, rpow(r, 5));
  b.update(9, -1, rpow(r, 9));
  direct.update(5, 1, rpow(r, 5));
  direct.update(9, -1, rpow(r, 9));
  a.add(b);
  EXPECT_EQ(a.s0(), direct.s0());
  EXPECT_EQ(a.s1(), direct.s1());
  EXPECT_EQ(a.s2(), direct.s2());
}

TEST(OneSparse, RawRoundtrip) {
  const std::uint64_t r = 2718281828;
  OneSparseCell cell;
  cell.update(123, -1, rpow(r, 123));
  const auto copy = OneSparseCell::from_raw(cell.s0(), cell.s1(), cell.s2());
  const auto rec = copy.recover(r, kUniverse);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->index, 123u);
}

TEST(OneSparse, WireBitsGrowWithUniverse) {
  EXPECT_GT(OneSparseCell::wire_bits(1 << 30), OneSparseCell::wire_bits(1 << 10));
  EXPECT_GE(OneSparseCell::wire_bits(16), 2 * 61u);
}

L0Sampler make_sampler(std::uint64_t seed) {
  return L0Sampler(kUniverse, L0Params::for_universe(kUniverse), seed);
}

TEST(L0, EmptyIsZero) {
  const auto s = make_sampler(1);
  EXPECT_TRUE(s.is_zero());
  EXPECT_FALSE(s.sample().has_value());
}

TEST(L0, SingleItemRecoveredExactly) {
  auto s = make_sampler(2);
  s.update(4242, 1);
  EXPECT_FALSE(s.is_zero());
  const auto rec = s.sample();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->index, 4242u);
  EXPECT_EQ(rec->value, 1);
}

TEST(L0, SampleReturnsSupportMember) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    auto s = make_sampler(split(991, trial));
    std::set<std::uint64_t> support;
    const int size = 1 + static_cast<int>(rng.next_below(200));
    while (static_cast<int>(support.size()) < size) {
      support.insert(rng.next_below(kUniverse));
    }
    for (const auto idx : support) s.update(idx, 1);
    const auto rec = s.sample();
    ASSERT_TRUE(rec.has_value()) << "sampler failed on support size " << size;
    EXPECT_TRUE(support.count(rec->index)) << "sampled a non-support index";
    EXPECT_EQ(rec->value, 1);
  }
}

TEST(L0, MixedSignsStillValid) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    auto s = make_sampler(split(772, trial));
    std::map<std::uint64_t, int> entries;
    for (int i = 0; i < 100; ++i) {
      entries.emplace(rng.next_below(kUniverse), rng.next_bool(0.5) ? 1 : -1);
    }
    for (const auto& [idx, val] : entries) s.update(idx, val);
    const auto rec = s.sample();
    ASSERT_TRUE(rec.has_value());
    const auto it = entries.find(rec->index);
    ASSERT_NE(it, entries.end());
    EXPECT_EQ(rec->value, it->second);
  }
}

TEST(L0, LinearityExact) {
  Rng rng(7);
  const std::uint64_t seed = 404;
  auto a = make_sampler(seed);
  auto b = make_sampler(seed);
  auto direct = make_sampler(seed);
  for (int i = 0; i < 300; ++i) {
    const auto idx = rng.next_below(kUniverse);
    const int val = rng.next_bool(0.5) ? 1 : -1;
    if (i % 2 == 0) {
      a.update(idx, val);
    } else {
      b.update(idx, val);
    }
    direct.update(idx, val);
  }
  a.add(b);
  WordWriter wa, wd;
  a.serialize(wa);
  direct.serialize(wd);
  EXPECT_EQ(std::move(wa).take(), std::move(wd).take());
}

TEST(L0, CancellationToZero) {
  Rng rng(9);
  const std::uint64_t seed = 505;
  auto a = make_sampler(seed);
  auto b = make_sampler(seed);
  std::vector<std::uint64_t> idxs;
  for (int i = 0; i < 100; ++i) idxs.push_back(rng.next_below(kUniverse));
  for (const auto idx : idxs) a.update(idx, 1);
  for (const auto idx : idxs) b.update(idx, -1);
  a.add(b);
  EXPECT_TRUE(a.is_zero());
  EXPECT_FALSE(a.sample().has_value());
}

TEST(L0, PartialCancellationLeavesRest) {
  const std::uint64_t seed = 606;
  auto a = make_sampler(seed);
  a.update(100, 1);
  a.update(200, 1);
  auto b = make_sampler(seed);
  b.update(100, -1);
  a.add(b);
  const auto rec = a.sample();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->index, 200u);
}

TEST(L0, SerializeDeserializeRoundtrip) {
  Rng rng(11);
  auto s = make_sampler(707);
  for (int i = 0; i < 50; ++i) s.update(rng.next_below(kUniverse), 1);
  WordWriter w;
  s.serialize(w);
  const auto words = std::move(w).take();
  WordReader r(words);
  const auto copy =
      L0Sampler::deserialize(kUniverse, L0Params::for_universe(kUniverse), 707, r);
  EXPECT_TRUE(r.done());
  const auto s1 = s.sample();
  const auto s2 = copy.sample();
  ASSERT_TRUE(s1.has_value());
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(s1->index, s2->index);
}

// Serialize both sides and compare every word — wire-bit equality, the
// property the golden ledger relies on.
std::vector<std::uint64_t> wire_words(const L0Sampler& s) {
  WordWriter w;
  s.serialize(w);
  return std::move(w).take();
}

TEST(L0, AddSerializedMatchesDeserializeAdd) {
  // Randomized sketches: merging the wire form directly must be bit-exact
  // with materializing the sketch and adding it.
  Rng rng(29);
  const auto params = L0Params::for_universe(kUniverse);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t seed = split(71, trial);
    L0Sampler incoming(kUniverse, params, seed);
    const int support = 1 + static_cast<int>(rng.next_below(200));
    for (int i = 0; i < support; ++i) {
      incoming.update(rng.next_below(kUniverse), (i & 3) == 0 ? -1 : 1);
    }
    WordWriter w;
    w.u64(0x10be1);  // leading non-cell word, as on the engine's wire
    incoming.serialize(w);
    const auto words = std::move(w).take();

    // Identical nonzero accumulators; only the merge path differs.
    L0Sampler acc_a(kUniverse, params, seed);
    L0Sampler acc_b(kUniverse, params, seed);
    const std::uint64_t shared_index = rng.next_below(kUniverse);
    acc_a.update(shared_index, 1);
    acc_b.update(shared_index, 1);

    WordReader ra(words);
    (void)ra.u64();
    acc_a.add(L0Sampler::deserialize(kUniverse, params, seed, ra));
    EXPECT_TRUE(ra.done());

    WordReader rb(words);
    (void)rb.u64();
    acc_b.add_serialized(rb);
    EXPECT_TRUE(rb.done());

    EXPECT_EQ(wire_words(acc_a), wire_words(acc_b));
    const auto sa = acc_a.sample();
    const auto sb = acc_b.sample();
    ASSERT_EQ(sa.has_value(), sb.has_value());
    if (sa.has_value()) {
      EXPECT_EQ(sa->index, sb->index);
    }
  }
}

TEST(L0, AddSerializedCancelsLikeAdd) {
  // Two parts of one component cancel their shared edge when merged on the
  // wire, exactly as with add().
  const auto params = L0Params::for_universe(kUniverse);
  L0Sampler a(kUniverse, params, 31), b(kUniverse, params, 31);
  a.update(1234, 1);
  a.update(999, 1);
  b.update(1234, -1);
  L0Sampler acc(kUniverse, params, 31);
  const auto words_a = wire_words(a);
  const auto words_b = wire_words(b);
  WordReader ra(words_a);
  acc.add_serialized(ra);
  WordReader rb(words_b);
  acc.add_serialized(rb);
  const auto rec = acc.sample();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->index, 999u);
}

TEST(L0, ResetZeroesAndRebinds) {
  const auto params = L0Params::for_universe(kUniverse);
  L0Sampler s(kUniverse, params, 41);
  s.update(777, 1);
  EXPECT_FALSE(s.is_zero());
  s.reset(43);
  EXPECT_TRUE(s.is_zero());
  EXPECT_EQ(s.seed(), 43u);
  // After reset the sampler behaves like a fresh seed-43 sketch.
  L0Sampler fresh(kUniverse, params, 43);
  s.update(555, 1);
  fresh.update(555, 1);
  EXPECT_EQ(wire_words(s), wire_words(fresh));
}

TEST(L0, FingerprintBaseForMatchesInstance) {
  const L0Sampler s(kUniverse, L0Params::for_universe(kUniverse), 97);
  for (int c = 0; c < s.params().copies; ++c) {
    EXPECT_EQ(L0Sampler::fingerprint_base_for(97, c), s.fingerprint_base(c));
  }
}

TEST(L0, SuccessRateHigh) {
  Rng rng(13);
  int failures = 0;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto s = make_sampler(split(808, trial));
    const int size = 1 + static_cast<int>(rng.next_below(1000));
    for (int i = 0; i < size; ++i) s.update(rng.next_below(kUniverse), 1);
    if (!s.sample().has_value()) ++failures;
  }
  // Three independent copies: empirical failure rate stays in low percent.
  EXPECT_LE(failures, kTrials / 20);
}

TEST(L0, SampleSpreadsOverSupport) {
  // Across independent seeds, every element of a small support should be
  // sampled at least once — a coarse uniformity check.
  constexpr int kSupport = 8;
  std::set<std::uint64_t> hit;
  for (int seed = 0; seed < 200 && hit.size() < kSupport; ++seed) {
    auto s = make_sampler(split(909, seed));
    for (std::uint64_t i = 0; i < kSupport; ++i) s.update(1000 + i, 1);
    if (const auto rec = s.sample()) hit.insert(rec->index);
  }
  EXPECT_EQ(hit.size(), kSupport);
}

// Reference for the live-depth bookkeeping: the same cells kept densely,
// every level of every copy updated and scanned, as before live depths.
struct DenseReference {
  std::uint64_t seed;
  L0Params params;
  std::vector<OneSparseCell> cells;

  DenseReference(std::uint64_t s, L0Params p)
      : seed(s), params(p), cells(static_cast<std::size_t>(p.cells())) {}

  OneSparseCell& cell(int c, int l) {
    return cells[static_cast<std::size_t>(c * params.levels + l)];
  }

  void update(const L0Sampler& like, std::uint64_t index, int value) {
    for (int c = 0; c < params.copies; ++c) {
      const std::uint64_t rp = rpow(like.fingerprint_base(c), index);
      for (int l = 0; l <= like.level_of(index, c); ++l) cell(c, l).update(index, value, rp);
    }
  }

  std::optional<Recovered> sample(const L0Sampler& like) {
    for (int c = 0; c < params.copies; ++c) {
      for (int l = 0; l < params.levels; ++l) {
        if (auto rec = cell(c, l).recover(like.fingerprint_base(c), kUniverse)) return rec;
      }
    }
    return std::nullopt;
  }

  bool is_zero() {
    for (int c = 0; c < params.copies; ++c) {
      if (cell(c, 0).s0() != 0 || cell(c, 0).s2() != 0) return false;
    }
    return true;
  }

  /// The wire form spelled out: per copy, the depth past the last nonzero
  /// cell, then that many cells.
  std::vector<std::uint64_t> wire() {
    std::vector<std::uint64_t> words;
    for (int c = 0; c < params.copies; ++c) {
      int depth = params.levels;
      while (depth > 0 && cell(c, depth - 1).all_zero()) --depth;
      words.push_back(static_cast<std::uint64_t>(depth));
      for (int l = 0; l < depth; ++l) {
        words.push_back(static_cast<std::uint64_t>(cell(c, l).s0()));
        words.push_back(cell(c, l).s1());
        words.push_back(cell(c, l).s2());
      }
    }
    return words;
  }
};

TEST(L0, LiveDepthMatchesDenseReference) {
  // Random supports, then cancel none, part, or all of them — both through
  // update() on the same sampler and through add() of a negated sketch.
  Rng rng(37);
  const auto params = L0Params::for_universe(kUniverse);
  for (int trial = 0; trial < 60; ++trial) {
    const std::uint64_t seed = split(83, trial);
    L0Sampler s(kUniverse, params, seed);
    L0Sampler negated(kUniverse, params, seed);
    DenseReference ref(seed, params);
    std::set<std::uint64_t> support;
    const int size = 2 + static_cast<int>(rng.next_below(trial % 3 == 0 ? 8 : 300));
    while (static_cast<int>(support.size()) < size) support.insert(rng.next_below(kUniverse));
    for (const auto idx : support) {
      s.update(idx, 1);
      ref.update(s, idx, 1);
    }
    // trial % 4: 0 keeps everything, 1 cancels half in place, 2 cancels
    // everything in place, 3 cancels half through add().
    const int mode = trial % 4;
    std::size_t i = 0;
    for (const auto idx : support) {
      const bool cancel = mode == 2 || ((mode == 1 || mode == 3) && i++ % 2 == 0);
      if (!cancel) continue;
      if (mode == 3) {
        negated.update(idx, -1);
      } else {
        s.update(idx, -1);
      }
      ref.update(s, idx, -1);
    }
    if (mode == 3) s.add(negated);

    EXPECT_EQ(s.is_zero(), ref.is_zero()) << "trial " << trial;
    EXPECT_EQ(s.is_zero(), mode == 2) << "trial " << trial;
    const auto got = s.sample();
    const auto want = ref.sample(s);
    ASSERT_EQ(got.has_value(), want.has_value()) << "trial " << trial;
    if (got.has_value()) {
      EXPECT_EQ(got->index, want->index);
      EXPECT_EQ(got->value, want->value);
    }
    EXPECT_EQ(wire_words(s), ref.wire()) << "trial " << trial;
  }
}

TEST(L0, CancelledSumSerializesLikeDirectSketch) {
  // a holds S and T, b holds -T: a + b must serialize to exactly the words
  // of a sketch built from S alone, though a's live depth covers T too.
  Rng rng(41);
  const auto params = L0Params::for_universe(kUniverse);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t seed = split(97, trial);
    L0Sampler a(kUniverse, params, seed), b(kUniverse, params, seed);
    L0Sampler direct(kUniverse, params, seed);
    for (int i = 0; i < 1 + trial; ++i) {
      const auto idx = rng.next_below(kUniverse);
      a.update(idx, 1);
      direct.update(idx, 1);
    }
    for (int i = 0; i < 200; ++i) {
      const auto idx = rng.next_below(kUniverse);
      a.update(idx, -1);
      b.update(idx, 1);
    }
    a.add(b);
    EXPECT_EQ(wire_words(a), wire_words(direct)) << "trial " << trial;
  }
}

TEST(L0, ZeroSketchSerializesToCopiesWords) {
  const auto params = L0Params::for_universe(kUniverse);
  const std::vector<std::uint64_t> zeros(static_cast<std::size_t>(params.copies), 0);
  L0Sampler s(kUniverse, params, 53);
  EXPECT_EQ(wire_words(s), zeros);
  // Fully cancelled: the live depth is high but every cell is zero again.
  for (std::uint64_t i = 0; i < 64; ++i) s.update(i * 7919, 1);
  for (std::uint64_t i = 0; i < 64; ++i) s.update(i * 7919, -1);
  EXPECT_EQ(wire_words(s), zeros);
  WordReader r(zeros);
  L0Sampler acc(kUniverse, params, 53);
  acc.add_serialized(r);
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(acc.is_zero());
}

TEST(L0, WireBitsMatchParams) {
  auto s = make_sampler(1);
  const auto& params = s.params();
  const std::uint64_t dense =
      static_cast<std::uint64_t>(params.cells()) * OneSparseCell::wire_bits(kUniverse);
  // The declared size is the dense one whatever the physical word count.
  std::set<std::size_t> lengths;
  Rng rng(61);
  for (const int size : {0, 1, 5, 500}) {
    s.reset(1);
    for (int i = 0; i < size; ++i) s.update(rng.next_below(kUniverse), 1);
    const std::size_t words = wire_words(s).size();
    lengths.insert(words);
    EXPECT_LE(words, s.max_serialized_words());
    EXPECT_EQ(s.wire_bits(), dense);
  }
  EXPECT_EQ(lengths.size(), 4u);  // the physical lengths really differ
  // O(polylog): a few hundred field elements at most for this universe.
  EXPECT_LT(s.wire_bits(), 50'000u);
}

TEST(L0Death, MismatchedCombineRejected) {
  auto a = make_sampler(1);
  auto b = make_sampler(2);  // different seed
  EXPECT_DEATH(a.add(b), "different construction");
}

TEST(L0Death, WireDepthAboveLevelsRejected) {
  const auto params = L0Params::for_universe(kUniverse);
  // A depth word one past `levels`, backed by enough cell words that only
  // the depth check can object.
  std::vector<std::uint64_t> words(static_cast<std::size_t>(params.copies) +
                                       3 * static_cast<std::size_t>(params.cells() + 1),
                                   0);
  words[0] = static_cast<std::uint64_t>(params.levels) + 1;
  L0Sampler acc(kUniverse, params, 67);
  EXPECT_DEATH(
      {
        WordReader r(words);
        acc.add_serialized(r);
      },
      "depth exceeds levels");
  EXPECT_DEATH(
      {
        WordReader r(words);
        (void)L0Sampler::deserialize(kUniverse, params, 67, r);
      },
      "depth exceeds levels");
}

TEST(L0Death, UpdateOutsideUniverse) {
  auto a = make_sampler(1);
  EXPECT_DEATH(a.update(kUniverse + 5, 1), "outside universe");
}

TEST(L0Params, LevelsCoverUniverse) {
  const auto p = L0Params::for_universe(1ULL << 32);
  EXPECT_GE(p.levels, 32);
  const auto small = L0Params::for_universe(16);
  EXPECT_GE(small.levels, 4);
  EXPECT_EQ(small.cells(), small.levels * small.copies);
}

}  // namespace
}  // namespace kmm
