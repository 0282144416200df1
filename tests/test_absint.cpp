/// \file test_absint.cpp
/// \brief Abstract cache domain tests: transfer-function semantics on
///        direct-mapped and set-associative LRU caches, join laws, and the
///        fundamental soundness property against the concrete CacheSim --
///        must-hits are real hits and may-misses are real misses on EVERY
///        concrete execution, for randomized access sequences.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/absint.hpp"
#include "cache/cache_model.hpp"

namespace {

using catsched::cache::AbstractCacheState;
using catsched::cache::CacheConfig;
using catsched::cache::CachePair;
using catsched::cache::CacheSim;
using catsched::cache::Classification;

CacheConfig small_cache(std::size_t lines, std::size_t assoc) {
  CacheConfig c;
  c.num_lines = lines;
  c.associativity = assoc;
  return c;
}

TEST(MustState, RepeatAccessBecomesGuaranteed) {
  AbstractCacheState must(small_cache(8, 2), AbstractCacheState::Kind::must);
  EXPECT_FALSE(must.contains(3));
  must.access(3);
  EXPECT_TRUE(must.contains(3));
  EXPECT_EQ(must.age(3), 0u);
}

TEST(MustState, AgeingEvictsAtAssociativity) {
  // 2-way cache, one set (fully associative over 2 lines): the third
  // distinct line in a set pushes the oldest out of the must state.
  AbstractCacheState must(small_cache(2, 2), AbstractCacheState::Kind::must);
  must.access(0);
  must.access(2);  // same set (addresses mod 1 set)
  must.access(4);
  EXPECT_FALSE(must.contains(0));
  EXPECT_TRUE(must.contains(2));
  EXPECT_TRUE(must.contains(4));
}

TEST(MustState, HitDoesNotAgeOlderLines) {
  // LRU semantics: re-accessing a young line must not age lines older than
  // it (they were already older; their relative position is unchanged).
  AbstractCacheState must(small_cache(4, 4), AbstractCacheState::Kind::must);
  must.access(0);
  must.access(4);
  must.access(8);   // ages: 8->0, 4->1, 0->2
  must.access(8);   // re-access MRU: nothing else ages
  EXPECT_EQ(must.age(0), 2u);
  EXPECT_EQ(must.age(4), 1u);
  EXPECT_EQ(must.age(8), 0u);
}

TEST(MustJoin, IntersectionWithMaxAge) {
  const CacheConfig cfg = small_cache(4, 4);
  AbstractCacheState a(cfg, AbstractCacheState::Kind::must);
  AbstractCacheState b(cfg, AbstractCacheState::Kind::must);
  a.access(0);
  a.access(4);  // a: {4:0, 0:1}
  b.access(4);
  b.access(8);  // b: {8:0, 4:1}
  a.join(b);
  EXPECT_TRUE(a.contains(4));   // only 4 survives the intersection
  EXPECT_FALSE(a.contains(0));
  EXPECT_FALSE(a.contains(8));
  EXPECT_EQ(a.age(4), 1u);      // max(0, 1)
}

TEST(MayJoin, UnionWithMinAge) {
  const CacheConfig cfg = small_cache(4, 4);
  AbstractCacheState a(cfg, AbstractCacheState::Kind::may);
  AbstractCacheState b(cfg, AbstractCacheState::Kind::may);
  a.access(0);
  a.access(4);  // a: {4:0, 0:1}
  b.access(8);  // b: {8:0}
  a.join(b);
  EXPECT_TRUE(a.contains(0));
  EXPECT_TRUE(a.contains(4));
  EXPECT_TRUE(a.contains(8));
  EXPECT_EQ(a.age(8), 0u);
}

TEST(JoinLaws, JoinIsIdempotentAndMonotoneOnExamples) {
  const CacheConfig cfg = small_cache(8, 2);
  AbstractCacheState a(cfg, AbstractCacheState::Kind::must);
  a.access(1);
  a.access(3);
  AbstractCacheState copy = a;
  copy.join(a);
  EXPECT_EQ(copy, a);  // x join x = x
}

TEST(Join, ThrowsOnKindMismatch) {
  const CacheConfig cfg = small_cache(8, 2);
  AbstractCacheState must(cfg, AbstractCacheState::Kind::must);
  AbstractCacheState may(cfg, AbstractCacheState::Kind::may);
  EXPECT_THROW(must.join(may), std::invalid_argument);
}

TEST(CachePairClassify, ColdAccessIsAlwaysMiss) {
  CachePair pair(small_cache(8, 2));
  EXPECT_EQ(pair.classify(5), Classification::always_miss);
  pair.access(5);
  EXPECT_EQ(pair.classify(5), Classification::always_hit);
}

TEST(CachePairClassify, JoinOfDivergentPathsGivesFirstMissWhenAssociative) {
  const CacheConfig cfg = small_cache(8, 2);
  CachePair then_path(cfg);
  CachePair else_path(cfg);
  then_path.access(1);  // line 1 cached only on the then-path
  then_path.join(else_path);
  // After the join, 1 is possible (may) but not guaranteed (must) — yet the
  // persistence domain keeps the one-sided entry at bumped age 1 < 2 ways,
  // so the access point is provably a first-miss, not unclassifiable.
  EXPECT_EQ(then_path.classify(1), Classification::first_miss);
}

TEST(CachePairClassify, JoinOfDivergentPathsDirectMappedStaysNotClassified) {
  // Direct-mapped: the one-sided join bump max(age, 1) already reaches the
  // associativity, so persistence cannot rescue the classification.
  const CacheConfig cfg = small_cache(8, 1);
  CachePair then_path(cfg);
  CachePair else_path(cfg);
  then_path.access(1);
  then_path.join(else_path);
  EXPECT_EQ(then_path.classify(1), Classification::not_classified);
}

// --------------------------------------------------------------------------
// Persistence ("first-miss") domain pins. The load-bearing design decisions:
// unconditional +1 aging of other tracked lines (conditional aging is
// unsound, see the z,x,y,z,x counterexample below), saturation-without-drop
// under age_set, the one-sided join bump, and run-local reset.

TEST(Persistence, UnconditionalAgingRejectsDoubleMissingLine) {
  // 2-way, one set; z=0, x=2, y=4 all map to set 0. The concrete LRU trace
  // z,x,y,z,x misses on x TWICE (y evicts z, the z re-fetch evicts x), so
  // the final x access must NOT be classified first_miss. A "conditional"
  // persistence aging (only age lines younger than the accessed one) would
  // unsoundly keep x persistent here.
  CachePair pair(small_cache(2, 2));
  pair.access(0);  // z
  pair.access(2);  // x
  pair.access(4);  // y
  pair.access(0);  // z again
  EXPECT_FALSE(pair.persistence().persistent(2));
  const Classification c = pair.classify(2);
  EXPECT_NE(c, Classification::first_miss);
  EXPECT_NE(c, Classification::always_hit);
}

TEST(Persistence, AccessAtAgeZeroAgesNothing) {
  // Age 0 proves the set's most recent access was this very line on every
  // covered path, so a repeat access adds no new conflicts to other lines.
  AbstractCacheState pers(small_cache(2, 2),
                          AbstractCacheState::Kind::persistence);
  pers.access(0);
  pers.access(2);  // 0 -> age 1, 2 -> age 0
  pers.access(2);  // MRU repeat: 0 must stay at 1
  EXPECT_EQ(pers.age(0), 1u);
  EXPECT_EQ(pers.age(2), 0u);
  EXPECT_TRUE(pers.persistent(0));
}

TEST(Persistence, JoinBumpsOneSidedEntriesToAgeOne) {
  const CacheConfig cfg = small_cache(8, 2);
  AbstractCacheState a(cfg, AbstractCacheState::Kind::persistence);
  const AbstractCacheState b(cfg, AbstractCacheState::Kind::persistence);
  a.access(3);
  EXPECT_EQ(a.age(3), 0u);
  a.join(b);
  // One-sided entries survive the union but take the defensive +1 bump:
  // the other path may have touched the set once without us tracking it.
  EXPECT_TRUE(a.contains(3));
  EXPECT_EQ(a.age(3), 1u);
  EXPECT_TRUE(a.persistent(3));
}

TEST(Persistence, AgeSetSaturatesWithoutDropping) {
  const CacheConfig cfg = small_cache(8, 2);
  AbstractCacheState pers(cfg, AbstractCacheState::Kind::persistence);
  pers.access(3);
  pers.age_set(3 % cfg.num_sets(), 10);  // far beyond the associativity
  // Unlike must (which evicts), persistence saturates at the top and keeps
  // the entry: the line stays "accessed on some path", just not persistent.
  EXPECT_TRUE(pers.contains(3));
  EXPECT_EQ(pers.age(3), cfg.ways());
  EXPECT_FALSE(pers.persistent(3));
}

TEST(Persistence, ResetPersistenceClearsOnlyPersistence) {
  CachePair pair(small_cache(8, 2));
  pair.access(1);
  pair.access(2);
  pair.reset_persistence();
  EXPECT_EQ(pair.persistence().tracked_lines(), 0u);
  // Must and may facts are untouched: 1 is still a guaranteed hit.
  EXPECT_TRUE(pair.must().contains(1));
  EXPECT_EQ(pair.classify(1), Classification::always_hit);
}

/// Empirical first-miss soundness across joins: classify against the join
/// of two abstract path states, then replay the common suffix on BOTH
/// concrete caches. A concrete MISS at an access point classified
/// first_miss implies the line was provably never evicted since its last
/// load on every covered path — so the miss can only be the line's very
/// first access of that execution.
TEST(AbsintSoundness, FirstMissPointsMissAtMostOncePerExecution) {
  const CacheConfig cfg = small_cache(8, 2);
  std::mt19937 rng(424242);
  std::uniform_int_distribution<std::uint64_t> addr(0, 15);

  int checked_fm = 0;
  for (int trial = 0; trial < 60; ++trial) {
    CacheSim sim_a(cfg);
    CacheSim sim_b(cfg);
    CachePair pair_a(cfg);
    CachePair pair_b(cfg);
    std::vector<int> accessed_a(16, 0);
    std::vector<int> accessed_b(16, 0);
    for (int i = 0; i < 12; ++i) {
      const std::uint64_t la = addr(rng);
      const std::uint64_t lb = addr(rng);
      pair_a.access(la);
      sim_a.access(la);
      ++accessed_a[la];
      pair_b.access(lb);
      sim_b.access(lb);
      ++accessed_b[lb];
    }
    pair_a.join(pair_b);
    for (int i = 0; i < 40; ++i) {
      const std::uint64_t line = addr(rng);
      const Classification c = pair_a.classify_and_access(line);
      const bool hit_a = sim_a.access(line);
      const bool hit_b = sim_b.access(line);
      if (c == Classification::first_miss) {
        ++checked_fm;
        if (!hit_a) {
          ASSERT_EQ(accessed_a[line], 0)
              << "unsound FM (exec A), trial " << trial << " line " << line;
        }
        if (!hit_b) {
          ASSERT_EQ(accessed_b[line], 0)
              << "unsound FM (exec B), trial " << trial << " line " << line;
        }
      }
      ++accessed_a[line];
      ++accessed_b[line];
    }
  }
  // The sweep must actually exercise the first-miss classification.
  EXPECT_GT(checked_fm, 0);
}

struct SoundnessParams {
  std::size_t lines;
  std::size_t assoc;
  std::uint32_t seed;
};

class AbsintSoundnessSweep
    : public ::testing::TestWithParam<SoundnessParams> {};

/// The core soundness theorem, tested empirically: running ONE concrete
/// access sequence, every access classified AH must hit in the concrete
/// cache and every access classified AM must miss, regardless of cache
/// geometry. (NC may do either.)
TEST_P(AbsintSoundnessSweep, MustHitsAndMayMissesAreSound) {
  const auto p = GetParam();
  const CacheConfig cfg = small_cache(p.lines, p.assoc);
  CacheSim sim(cfg);
  CachePair pair(cfg);

  std::mt19937 rng(p.seed);
  std::uniform_int_distribution<std::uint64_t> addr(0, 2 * p.lines);
  int checked_ah = 0;
  int checked_am = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t line = addr(rng);
    const Classification c = pair.classify_and_access(line);
    const bool hit = sim.access(line);
    if (c == Classification::always_hit) {
      ASSERT_TRUE(hit) << "unsound AH at access " << i << " line " << line;
      ++checked_ah;
    } else if (c == Classification::always_miss) {
      ASSERT_FALSE(hit) << "unsound AM at access " << i << " line " << line;
      ++checked_am;
    }
  }
  // The sweep must actually exercise both classifications.
  EXPECT_GT(checked_ah, 0);
  EXPECT_GT(checked_am, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AbsintSoundnessSweep,
    ::testing::Values(SoundnessParams{8, 1, 11}, SoundnessParams{8, 2, 12},
                      SoundnessParams{8, 4, 13}, SoundnessParams{16, 1, 14},
                      SoundnessParams{16, 4, 15}, SoundnessParams{32, 8, 16},
                      SoundnessParams{16, 0, 17},  // fully associative
                      SoundnessParams{64, 2, 18}));

/// Soundness must survive joins: classify against the join of two abstract
/// states, then check against BOTH concrete caches the join covers.
TEST(AbsintSoundness, JoinCoversBothConcreteStates) {
  const CacheConfig cfg = small_cache(8, 2);
  std::mt19937 rng(99);
  std::uniform_int_distribution<std::uint64_t> addr(0, 15);

  for (int trial = 0; trial < 50; ++trial) {
    CacheSim sim_a(cfg);
    CacheSim sim_b(cfg);
    CachePair pair_a(cfg);
    CachePair pair_b(cfg);
    for (int i = 0; i < 40; ++i) {
      const std::uint64_t la = addr(rng);
      const std::uint64_t lb = addr(rng);
      pair_a.access(la);
      sim_a.access(la);
      pair_b.access(lb);
      sim_b.access(lb);
    }
    pair_a.join(pair_b);
    for (int i = 0; i < 60; ++i) {
      const std::uint64_t line = addr(rng);
      const Classification c = pair_a.classify_and_access(line);
      const bool hit_a = sim_a.access(line);
      const bool hit_b = sim_b.access(line);
      if (c == Classification::always_hit) {
        ASSERT_TRUE(hit_a && hit_b) << "join unsound (AH), trial " << trial;
      } else if (c == Classification::always_miss) {
        ASSERT_FALSE(hit_a || hit_b) << "join unsound (AM), trial " << trial;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Differential check of the domain against an independent per-set std::map
// reference implementation of the must/may/persistence transfer functions,
// joins and age_set. Any divergence in tracked lines, ages, or join results
// over randomized traces with joins and interference is a bug in one of the
// two.

/// Reference (map-based) abstract state: one std::map per set.
class MapRefState {
 public:
  MapRefState(const CacheConfig& config, AbstractCacheState::Kind kind)
      : kind_(kind), sets_(config.num_sets()), ways_(config.ways()),
        sets_state_(sets_) {}

  void access(std::uint64_t line) {
    auto& set = sets_state_[line % sets_];
    const auto it = set.find(line);
    const bool tracked = it != set.end();
    if (kind_ == AbstractCacheState::Kind::persistence) {
      // Unconditional saturating aging of every other line, skipped only
      // when the accessed line is already at age 0.
      if (!tracked || it->second != 0) {
        for (auto& [other, age] : set) {
          if (other != line && age < ways_) ++age;
        }
      }
      set[line] = 0;
      return;
    }
    const std::size_t accessed_age = tracked ? it->second : ways_;
    const bool is_must = kind_ == AbstractCacheState::Kind::must;
    for (auto m = set.begin(); m != set.end();) {
      const bool ages = is_must
                            ? m->second < accessed_age
                            : (!tracked || m->second <= accessed_age);
      if (m->first != line && ages) {
        if (++m->second >= ways_) {
          m = set.erase(m);
          continue;
        }
      }
      ++m;
    }
    set[line] = 0;
  }

  void join(const MapRefState& other) {
    for (std::size_t s = 0; s < sets_; ++s) {
      auto& mine = sets_state_[s];
      const auto& theirs = other.sets_state_[s];
      if (kind_ == AbstractCacheState::Kind::must) {
        for (auto it = mine.begin(); it != mine.end();) {
          const auto jt = theirs.find(it->first);
          if (jt == theirs.end()) {
            it = mine.erase(it);
          } else {
            it->second = std::max(it->second, jt->second);
            ++it;
          }
        }
      } else if (kind_ == AbstractCacheState::Kind::persistence) {
        // Union with max age; a one-sided entry is bumped to at least 1.
        for (auto& [line, age] : mine) {
          if (theirs.find(line) == theirs.end()) {
            age = std::max<std::size_t>(age, 1);
          }
        }
        for (const auto& [line, age] : theirs) {
          const auto it = mine.find(line);
          if (it == mine.end()) {
            mine.emplace(line, std::max<std::size_t>(age, 1));
          } else {
            it->second = std::max(it->second, age);
          }
        }
      } else {
        for (const auto& [line, age] : theirs) {
          const auto it = mine.find(line);
          if (it == mine.end()) {
            mine.emplace(line, age);
          } else {
            it->second = std::min(it->second, age);
          }
        }
      }
    }
  }

  /// Must: advance every bound of the set and evict at the associativity.
  /// Persistence: advance and saturate at the associativity, never evict.
  void age_set(std::size_t set_index, std::size_t amount) {
    auto& set = sets_state_[set_index];
    for (auto it = set.begin(); it != set.end();) {
      it->second += amount;
      if (kind_ == AbstractCacheState::Kind::persistence) {
        it->second = std::min(it->second, ways_);
      } else if (it->second >= ways_) {
        it = set.erase(it);
        continue;
      }
      ++it;
    }
  }

  bool contains(std::uint64_t line) const {
    const auto& set = sets_state_[line % sets_];
    return set.find(line) != set.end();
  }

  std::size_t age(std::uint64_t line) const {
    const auto& set = sets_state_[line % sets_];
    const auto it = set.find(line);
    return it != set.end() ? it->second : ways_;
  }

  std::size_t tracked_lines() const {
    std::size_t n = 0;
    for (const auto& set : sets_state_) n += set.size();
    return n;
  }

  /// Every (line, age) pair over all sets, for exhaustive comparison.
  std::vector<std::pair<std::uint64_t, std::size_t>> entries() const {
    std::vector<std::pair<std::uint64_t, std::size_t>> out;
    for (const auto& set : sets_state_) {
      out.insert(out.end(), set.begin(), set.end());
    }
    return out;
  }

 private:
  AbstractCacheState::Kind kind_;
  std::size_t sets_;
  std::size_t ways_;
  std::vector<std::map<std::uint64_t, std::size_t>> sets_state_;
};

void expect_equivalent(const AbstractCacheState& flat, const MapRefState& ref,
                       std::uint64_t max_line, const char* what) {
  ASSERT_EQ(flat.tracked_lines(), ref.tracked_lines()) << what;
  for (std::uint64_t line = 0; line <= max_line; ++line) {
    // contains() separates a persistence line saturated at the top from an
    // untracked one (age() reports `ways` for both).
    ASSERT_EQ(flat.contains(line), ref.contains(line))
        << what << " line " << line;
    ASSERT_EQ(flat.age(line), ref.age(line)) << what << " line " << line;
  }
}

class FlatVsMapDifferential
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(FlatVsMapDifferential, RandomTracesWithJoinsMatchReference) {
  const auto [lines, assoc] = GetParam();
  const CacheConfig cfg = small_cache(lines, assoc);
  const std::uint64_t max_line = 3 * lines;
  std::mt19937_64 rng(lines * 1000 + assoc);
  std::uniform_int_distribution<std::uint64_t> addr(0, max_line);

  // Interference draws come from their own stream, so the access traces
  // are the same with and without age_set.
  std::mt19937_64 interference_rng(lines * 1000 + assoc + 1);
  std::uniform_int_distribution<std::size_t> set_pick(0, cfg.num_sets() - 1);
  std::uniform_int_distribution<std::uint32_t> interference(
      0, static_cast<std::uint32_t>(cfg.ways() + 1));

  for (const auto kind :
       {AbstractCacheState::Kind::must, AbstractCacheState::Kind::may,
        AbstractCacheState::Kind::persistence}) {
    // age_set is an upper-bound interference transfer: must evicts,
    // persistence saturates (a may state needs a lower bound instead).
    const bool interfere = kind != AbstractCacheState::Kind::may;
    for (int trial = 0; trial < 20; ++trial) {
      AbstractCacheState flat_a(cfg, kind);
      AbstractCacheState flat_b(cfg, kind);
      MapRefState ref_a(cfg, kind);
      MapRefState ref_b(cfg, kind);
      // Two diverging access paths...
      for (int i = 0; i < 80; ++i) {
        const std::uint64_t la = addr(rng);
        const std::uint64_t lb = addr(rng);
        flat_a.access(la);
        ref_a.access(la);
        flat_b.access(lb);
        ref_b.access(lb);
      }
      expect_equivalent(flat_a, ref_a, max_line, "pre-join A");
      expect_equivalent(flat_b, ref_b, max_line, "pre-join B");
      // ...joined (may-union can outgrow the associativity), then more
      // accesses to age the joined state back down.
      flat_a.join(flat_b);
      ref_a.join(ref_b);
      expect_equivalent(flat_a, ref_a, max_line, "post-join");
      for (int i = 0; i < 40; ++i) {
        const std::uint64_t line = addr(rng);
        flat_a.access(line);
        ref_a.access(line);
        if (interfere && i % 8 == 7) {
          const std::size_t set = set_pick(interference_rng);
          const std::uint32_t amount = interference(interference_rng);
          flat_a.age_set(set, amount);
          ref_a.age_set(set, amount);
          expect_equivalent(flat_a, ref_a, max_line, "age_set");
        }
      }
      expect_equivalent(flat_a, ref_a, max_line, "post-join access");
      // Equality operator agrees with the reference notion of equality.
      AbstractCacheState replay(cfg, kind);
      EXPECT_EQ(flat_a == replay, ref_a.entries() == MapRefState(cfg, kind).entries());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FlatVsMapDifferential,
    ::testing::Values(std::make_tuple(8, 1),    // direct-mapped (fast path)
                      std::make_tuple(128, 1),  // the paper's configuration
                      std::make_tuple(8, 2),    // 2-way
                      std::make_tuple(16, 4),   // 4-way
                      std::make_tuple(12, 2),   // non-power-of-two sets
                      std::make_tuple(8, 0)));  // fully associative

class ClassifyAndAccessAgreement
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

/// classify_and_access() tests and updates each state with one lookup; it
/// must classify and update exactly as classify() followed by access(),
/// including after joins (which move set boundaries) and interference.
TEST_P(ClassifyAndAccessAgreement, MatchesClassifyThenAccess) {
  const auto [lines, assoc] = GetParam();
  const CacheConfig cfg = small_cache(lines, assoc);
  std::mt19937_64 rng(lines * 7919 + assoc);
  std::uniform_int_distribution<std::uint64_t> addr(0, 3 * lines);
  std::uniform_int_distribution<std::size_t> set_pick(0, cfg.num_sets() - 1);
  std::uniform_int_distribution<std::uint32_t> interference(
      0, static_cast<std::uint32_t>(cfg.ways()));
  int counts[4] = {};
  for (int trial = 0; trial < 20; ++trial) {
    CachePair fused(cfg);
    CachePair split(cfg);
    CachePair other(cfg);
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t line = addr(rng);
      const Classification expected = split.classify(line);
      split.access(line);
      const Classification got = fused.classify_and_access(line);
      ASSERT_EQ(got, expected) << "trial " << trial << " access " << i;
      ASSERT_EQ(fused, split) << "trial " << trial << " access " << i;
      ++counts[static_cast<int>(got)];
      other.access(addr(rng));
      if (i % 50 == 49) {
        fused.join(other);
        split.join(other);
      }
      if (i % 16 == 15) {
        const std::size_t set = set_pick(rng);
        const std::uint32_t amount = interference(rng);
        fused.age_interference_set(set, amount);
        split.age_interference_set(set, amount);
      }
    }
  }
  // Every classification is exercised, except FM where a one-way cache
  // evicts on every conflict.
  EXPECT_GT(counts[static_cast<int>(Classification::always_hit)], 0);
  EXPECT_GT(counts[static_cast<int>(Classification::always_miss)], 0);
  EXPECT_GT(counts[static_cast<int>(Classification::not_classified)], 0);
  if (cfg.ways() > 1) {
    EXPECT_GT(counts[static_cast<int>(Classification::first_miss)], 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ClassifyAndAccessAgreement,
    ::testing::Values(std::make_tuple(8, 1), std::make_tuple(128, 1),
                      std::make_tuple(8, 2), std::make_tuple(16, 4),
                      std::make_tuple(12, 2), std::make_tuple(8, 0)));

// --------------------------------------------------------------------------
// Memo keys depend on contents only. StaticAnalysisMemo keys on CachePair
// equality and hash, so two states with the same tracked (line, age)
// entries must compare equal and hash equal however they were reached —
// whatever storage a history leaves behind (grown and shrunk, joined,
// evicted) must not leak into == or hash().

void expect_same_key(const AbstractCacheState& a, const AbstractCacheState& b,
                     const char* what) {
  EXPECT_EQ(a, b) << what;
  EXPECT_EQ(a.hash(), b.hash()) << what;
}

TEST(MemoKey, EqualContentsFromDifferentHistoriesCompareAndHashEqual) {
  const CacheConfig cfg = small_cache(8, 2);  // 4 sets, 2 ways
  using Kind = AbstractCacheState::Kind;

  // Direct build: must {1:0}.
  AbstractCacheState direct(cfg, Kind::must);
  direct.access(1);

  // A join that shrinks must: {1:0, 5:1} meet {1:0} = {1:0}.
  AbstractCacheState joined(cfg, Kind::must);
  joined.access(5);
  joined.access(1);
  AbstractCacheState other(cfg, Kind::must);
  other.access(1);
  joined.join(other);
  expect_same_key(direct, joined, "must join that shrinks");

  // An age_set that evicts: {1:0, 3:0} with set 3 aged out = {1:0}.
  AbstractCacheState evicted(cfg, Kind::must);
  evicted.access(3);
  evicted.access(1);
  evicted.age_set(3, 2);
  expect_same_key(direct, evicted, "must age_set that evicts");

  // A may set that grew past the associativity at a join (union of two
  // disjoint full sets) and aged back down to the directly built contents.
  const CacheConfig one_set = small_cache(4, 4);
  AbstractCacheState may_direct(one_set, Kind::may);
  AbstractCacheState may_grown(one_set, Kind::may);
  AbstractCacheState may_other(one_set, Kind::may);
  for (std::uint64_t line = 0; line < 4; ++line) may_grown.access(line);
  for (std::uint64_t line = 4; line < 8; ++line) may_other.access(line);
  may_grown.join(may_other);
  EXPECT_EQ(may_grown.tracked_lines(), 8u);
  for (std::uint64_t line = 8; line < 12; ++line) {
    may_direct.access(line);
    may_grown.access(line);
  }
  expect_same_key(may_direct, may_grown, "may union aged back down");

  // Persistence: saturation by age_set equals saturation by conflicts.
  AbstractCacheState pers_aged(cfg, Kind::persistence);
  pers_aged.access(1);
  pers_aged.access(5);
  pers_aged.age_set(1, 10);
  AbstractCacheState pers_conflicts(cfg, Kind::persistence);
  pers_conflicts.access(5);
  pers_conflicts.access(1);
  pers_conflicts.access(9);  // 1 -> 1, 5 -> 2 (the top: 2 ways), 9 -> 0
  pers_conflicts.access(5);  // 5 -> 0, 1 -> 2, 9 -> 1
  pers_conflicts.access(1);  // 1 -> 0, 5 -> 1, 9 -> 2
  pers_conflicts.age_set(1, 10);
  AbstractCacheState pers_expected(cfg, Kind::persistence);
  pers_expected.access(1);
  pers_expected.access(5);
  pers_expected.access(9);
  pers_expected.age_set(1, 10);
  expect_same_key(pers_conflicts, pers_expected, "persistence saturation");
  EXPECT_NE(pers_aged, pers_expected);  // 9 is tracked only in one
}

TEST(MemoKey, MovedFromStateIsEmptyAndUsable) {
  // A moved-from state is a valid empty state: lookups start over rather
  // than from where the moved entries used to be.
  const CacheConfig cfg = small_cache(8, 2);
  AbstractCacheState source(cfg, AbstractCacheState::Kind::must);
  source.access(1);
  source.access(5);
  source.access(2);
  const AbstractCacheState moved = std::move(source);
  EXPECT_EQ(moved.tracked_lines(), 3u);
  EXPECT_FALSE(source.contains(2));  // NOLINT(bugprone-use-after-move)
  source.access(2);
  source.access(6);
  EXPECT_EQ(source.tracked_lines(), 2u);
  EXPECT_EQ(source.age(6), 0u);
  EXPECT_EQ(source.age(2), 1u);
}

TEST(MemoKey, FreshPairEqualsResetPairOnLargeCache) {
  const CacheConfig cfg = small_cache(4096, 1);  // 4096 sets
  const CachePair fresh(cfg);
  CachePair reset(cfg);
  reset.reset_persistence();
  EXPECT_EQ(fresh, reset);
  EXPECT_EQ(fresh.hash(), reset.hash());

  // Persistence facts from a run are gone after the reset, and the pair
  // keys the same as one whose persistence never saw those accesses.
  CachePair ran(cfg);
  CachePair again(cfg);
  for (std::uint64_t line : {7u, 4103u, 12u, 7u}) {
    ran.access(line);
    again.access(line);
  }
  again.reset_persistence();
  ran.reset_persistence();
  EXPECT_EQ(ran, again);
  EXPECT_EQ(ran.hash(), again.hash());
  EXPECT_NE(ran, fresh);

  std::unordered_map<CachePair, int, catsched::cache::CachePairHash> memo;
  memo.emplace(fresh, 1);
  memo.emplace(ran, 2);
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.at(reset), 1);
  EXPECT_EQ(memo.at(again), 2);
}

}  // namespace
