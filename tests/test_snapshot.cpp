// Pins the snapshot format (core/snapshot): scalar round-trips are
// bit-exact, framing survives a write/read cycle, every rejection path
// raises the right typed SnapshotErrc (bad magic / version / kind,
// truncation, checksum, out-of-domain values), damaged evaluation tables
// (a deterministic mutation sweep) are rejected or decode exactly, the
// crash-consistent file rotation keeps a .prev image, and
// load_snapshot_file falls back to it when the primary is damaged — the
// foundation of the kill-and-resume determinism guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/case_study.hpp"
#include "core/fault.hpp"
#include "core/interleaved_codesign.hpp"
#include "core/snapshot.hpp"
#include "opt/discrete_search.hpp"
#include "testgen/rng.hpp"

namespace {

using catsched::core::FaultPlan;
using catsched::core::SnapshotErrc;
using catsched::core::SnapshotError;
using catsched::core::SnapshotReader;
using catsched::core::SnapshotWriter;

/// Unique temp path per test; removed (with .tmp/.prev siblings) on exit.
class TempSnapshotPath {
 public:
  explicit TempSnapshotPath(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("catsched_snap_" + tag + ".bin"))
                  .string()) {
    cleanup();
  }
  ~TempSnapshotPath() { cleanup(); }
  const std::string& str() const { return path_; }

 private:
  void cleanup() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".tmp", ec);
    std::filesystem::remove(path_ + ".prev", ec);
  }
  std::string path_;
};

SnapshotErrc code_of(const std::vector<std::uint8_t>& file_bytes,
                     std::uint32_t expected_kind) {
  try {
    catsched::core::unframe_snapshot(file_bytes, expected_kind);
  } catch (const SnapshotError& e) {
    return e.code();
  }
  ADD_FAILURE() << "unframe_snapshot accepted damaged bytes";
  return SnapshotErrc::io_error;
}

TEST(SnapshotCodec, ScalarsRoundTripBitExact) {
  SnapshotWriter w;
  w.put_u8(0xAB);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  w.put_f64(0.1);
  w.put_f64(-0.0);
  w.put_f64(denorm);
  w.put_f64(nan);
  w.put_int_vector({5, -3, 0, 1 << 20});

  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.get_f64()),
            std::bit_cast<std::uint64_t>(0.1));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.get_f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.get_f64()),
            std::bit_cast<std::uint64_t>(denorm));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.get_f64()),
            std::bit_cast<std::uint64_t>(nan));
  EXPECT_EQ(r.get_int_vector(), (std::vector<int>{5, -3, 0, 1 << 20}));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SnapshotCodec, ReaderUnderrunThrowsTruncated) {
  SnapshotWriter w;
  w.put_u8(7);
  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 7u);
  try {
    r.get_u64();
    FAIL() << "read past the end succeeded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::truncated);
  }
}

TEST(SnapshotCodec, HostileVectorCountRejectedNotAllocated) {
  // A forged u64 count must be caught by the remaining-bytes bound, not
  // turned into a giant allocation or a wrapped size computation.
  SnapshotWriter w;
  w.put_u64(std::numeric_limits<std::uint64_t>::max());
  SnapshotReader r(w.bytes());
  try {
    r.get_int_vector();
    FAIL() << "hostile count accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::truncated);
  }
}

TEST(SnapshotCodec, IntVectorElementOutsideIntIsBadValue) {
  // Elements travel as i64; one that does not fit an int must be rejected,
  // not wrapped into a different schedule.
  for (const std::int64_t x :
       {std::int64_t{std::numeric_limits<int>::max()} + 1,
        std::int64_t{std::numeric_limits<int>::min()} - 1,
        std::numeric_limits<std::int64_t>::min()}) {
    SnapshotWriter w;
    w.put_u64(2);
    w.put_i64(3);
    w.put_i64(x);
    SnapshotReader r(w.bytes());
    try {
      r.get_int_vector();
      FAIL() << "element " << x << " accepted";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.code(), SnapshotErrc::bad_value) << x;
    }
  }
}

TEST(SnapshotCodec, EvaluationTableFeasibilityFlagOtherThanZeroOrOneIsBadValue) {
  const catsched::opt::EvaluationTable table = {{{3, 2, 3}, {1.5, true}}};
  std::vector<std::uint8_t> payload =
      catsched::opt::encode_evaluation_table(table);
  ASSERT_EQ(payload.back(), 1u);  // the entry's feasibility byte
  payload.back() = 2;
  try {
    catsched::opt::decode_evaluation_table(payload);
    FAIL() << "feasibility byte 2 accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::bad_value);
  }
}

TEST(SnapshotCodec, EvaluationTableBytesPastTheCountAreBadValue) {
  // A count that undercounts the entries must not drop the rest silently.
  const catsched::opt::EvaluationTable table = {{{1, 1}, {0.5, true}},
                                                {{2, 1}, {0.25, false}}};
  std::vector<std::uint8_t> payload =
      catsched::opt::encode_evaluation_table(table);
  payload[0] = 1;  // little-endian u64 entry count: 2 -> 1
  try {
    catsched::opt::decode_evaluation_table(payload);
    FAIL() << "undercounted table accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::bad_value);
  }
}

TEST(SnapshotFraming, RoundTripPreservesPayloadAndKind) {
  SnapshotWriter w;
  w.put_int_vector({7, -1});
  w.put_f64(0.25);
  const std::vector<std::uint8_t> payload = w.bytes();
  const auto framed = catsched::core::frame_snapshot(2, payload);
  std::uint32_t kind = 0;
  const auto back = catsched::core::unframe_snapshot(framed, 0, &kind);
  EXPECT_EQ(kind, 2u);
  EXPECT_EQ(back, payload);
}

TEST(SnapshotFraming, RejectionsCarryTypedCodes) {
  SnapshotWriter w;
  w.put_u64(99);
  auto framed = catsched::core::frame_snapshot(1, w.bytes());

  auto bad_magic = framed;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(code_of(bad_magic, 1), SnapshotErrc::bad_magic);

  auto bad_version = framed;
  bad_version[4] ^= 0x01;
  EXPECT_EQ(code_of(bad_version, 1), SnapshotErrc::bad_version);

  // Kind mismatch: a valid interleaved snapshot fed to a resume expecting
  // an evaluation table must be refused, not misparsed.
  EXPECT_EQ(code_of(framed, 3), SnapshotErrc::bad_kind);

  auto truncated = framed;
  truncated.pop_back();
  EXPECT_EQ(code_of(truncated, 1), SnapshotErrc::truncated);

  auto flipped = framed;
  flipped[framed.size() - 9] ^= 0x01;  // last payload byte
  EXPECT_EQ(code_of(flipped, 1), SnapshotErrc::checksum_mismatch);

  const std::vector<std::uint8_t> tiny{'C', 'S', 'N', 'P'};
  EXPECT_EQ(code_of(tiny, 1), SnapshotErrc::truncated);
}

TEST(SnapshotFile, WriteReadRoundTrip) {
  TempSnapshotPath p("roundtrip");
  SnapshotWriter w;
  w.put_int_vector({2, 3});
  w.put_f64(0.7310585786300049);
  catsched::core::write_snapshot_file(p.str(), 1, w.bytes());
  ASSERT_TRUE(catsched::core::snapshot_exists(p.str()));
  const auto payload = catsched::core::read_snapshot_file(p.str(), 1);
  SnapshotReader r(payload);
  EXPECT_EQ(r.get_int_vector(), (std::vector<int>{2, 3}));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.get_f64()),
            std::bit_cast<std::uint64_t>(0.7310585786300049));
}

TEST(SnapshotFile, MissingFileIsIoErrorAndNotExists) {
  TempSnapshotPath p("missing");
  EXPECT_FALSE(catsched::core::snapshot_exists(p.str()));
  try {
    catsched::core::read_snapshot_file(p.str(), 1);
    FAIL() << "read of missing file succeeded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::io_error);
  }
}

TEST(SnapshotFile, RotationKeepsPreviousImage) {
  TempSnapshotPath p("rotation");
  SnapshotWriter w1;
  w1.put_u64(1);
  catsched::core::write_snapshot_file(p.str(), 1, w1.bytes());
  EXPECT_FALSE(std::filesystem::exists(p.str() + ".prev"));

  SnapshotWriter w2;
  w2.put_u64(2);
  catsched::core::write_snapshot_file(p.str(), 1, w2.bytes());

  // Primary carries the new image, .prev the old one, no stray .tmp.
  const auto cur_payload = catsched::core::read_snapshot_file(p.str(), 1);
  SnapshotReader cur(cur_payload);
  EXPECT_EQ(cur.get_u64(), 2u);
  const auto prev_payload =
      catsched::core::read_snapshot_file(p.str() + ".prev", 1);
  SnapshotReader prev(prev_payload);
  EXPECT_EQ(prev.get_u64(), 1u);
  EXPECT_FALSE(std::filesystem::exists(p.str() + ".tmp"));
}

TEST(SnapshotFile, LoadFallsBackToPrevWhenPrimaryCorrupted) {
  TempSnapshotPath p("fallback");
  SnapshotWriter w1;
  w1.put_u64(10);
  catsched::core::write_snapshot_file(p.str(), 1, w1.bytes());

  // Second write with the corruption fault armed: the primary image is
  // damaged exactly as a torn write would leave it, .prev stays intact.
  FaultPlan fault;
  fault.corrupt_snapshot_at = 1;
  SnapshotWriter w2;
  w2.put_u64(20);
  catsched::core::write_snapshot_file(p.str(), 1, w2.bytes(), &fault);

  try {
    catsched::core::read_snapshot_file(p.str(), 1);
    FAIL() << "corrupted primary accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::checksum_mismatch);
  }

  bool used_fallback = false;
  const auto payload =
      catsched::core::load_snapshot_file(p.str(), 1, &used_fallback);
  EXPECT_TRUE(used_fallback);
  SnapshotReader r(payload);
  EXPECT_EQ(r.get_u64(), 10u);
}

TEST(SnapshotFile, LoadThrowsPrimaryErrorWhenBothDamaged) {
  TempSnapshotPath p("bothbad");
  SnapshotWriter w;
  w.put_u64(1);
  catsched::core::write_snapshot_file(p.str(), 1, w.bytes());
  catsched::core::write_snapshot_file(p.str(), 1, w.bytes());  // creates .prev

  // Truncate both images below the framing minimum.
  std::filesystem::resize_file(p.str(), 4);
  std::filesystem::resize_file(p.str() + ".prev", 4);
  bool used_fallback = true;
  try {
    catsched::core::load_snapshot_file(p.str(), 1, &used_fallback);
    FAIL() << "doubly-damaged checkpoint accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::truncated);
  }
}

TEST(SnapshotFile, TruncatedPrimaryFallsBackToPrev) {
  TempSnapshotPath p("truncfall");
  SnapshotWriter w1;
  w1.put_u64(7);
  catsched::core::write_snapshot_file(p.str(), 1, w1.bytes());
  SnapshotWriter w2;
  w2.put_u64(8);
  catsched::core::write_snapshot_file(p.str(), 1, w2.bytes());

  // Simulate a torn write: primary cut mid-payload.
  const auto size = std::filesystem::file_size(p.str());
  std::filesystem::resize_file(p.str(), size / 2);

  bool used_fallback = false;
  const auto payload =
      catsched::core::load_snapshot_file(p.str(), 1, &used_fallback);
  EXPECT_TRUE(used_fallback);
  SnapshotReader r(payload);
  EXPECT_EQ(r.get_u64(), 7u);
}

/// Payloads whose leading entry count lies: all ones (a reserve() of it
/// would throw std::length_error) and 2^44 (std::bad_alloc), each followed
/// by a few bytes of entry data.
std::vector<std::vector<std::uint8_t>> lying_count_payloads() {
  std::vector<std::vector<std::uint8_t>> out;
  for (const std::uint64_t count :
       {std::numeric_limits<std::uint64_t>::max(), std::uint64_t{1} << 44}) {
    SnapshotWriter w;
    w.put_u64(count);
    w.put_u64(0);
    w.put_f64(0.5);
    w.put_u8(1);
    w.put_u8(1);
    out.push_back(w.take());
  }
  return out;
}

TEST(SnapshotCodec, EvaluationTableLyingCountIsTruncated) {
  for (const auto& payload : lying_count_payloads()) {
    try {
      catsched::opt::decode_evaluation_table(payload);
      FAIL() << "lying entry count accepted";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.code(), SnapshotErrc::truncated);
    }
  }
}

/// The table the mutation sweep damages: points of several lengths
/// (empty, int extremes), values with special bit patterns, both
/// feasibility flags.
catsched::opt::EvaluationTable sweep_table() {
  return {{{3, 2, 3}, {0.8125, true}},
          {{}, {std::numeric_limits<double>::infinity(), false}},
          {{-7, std::numeric_limits<int>::max(),
            std::numeric_limits<int>::min()},
           {std::numeric_limits<double>::quiet_NaN(), false}},
          {{1}, {-0.0, true}}};
}

/// Byte offsets of every u64 count field in an encoded table: the entry
/// count, then each point's element count.
std::vector<std::size_t> count_offsets(
    const catsched::opt::EvaluationTable& table) {
  std::vector<std::size_t> out = {0};
  std::size_t at = 8;
  for (const auto& [point, outcome] : table) {
    out.push_back(at);
    at += 8 + 8 * point.size() + 8 + 1;
  }
  return out;
}

/// Deterministic mutant \p k of \p payload: bit flips, a truncation, or a
/// count field overwritten with a lie (off by a little, or arbitrary).
std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& payload,
                                 const std::vector<std::size_t>& counts,
                                 catsched::testgen::SplitMix64& rng, int k) {
  std::vector<std::uint8_t> m = payload;
  switch (k % 3) {
    case 0: {
      const std::uint64_t flips = 1 + rng.below(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        m[rng.index(m.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
      }
      break;
    }
    case 1:
      m.resize(rng.index(m.size()));
      break;
    default: {
      const std::size_t at = counts[rng.index(counts.size())];
      std::uint64_t old = 0;
      for (int i = 0; i < 8; ++i) {
        old |= static_cast<std::uint64_t>(m[at + i]) << (8 * i);
      }
      const std::uint64_t lie =
          rng.chance(0.5) ? old + static_cast<std::uint64_t>(rng.range(-2, 2))
                          : rng.next();
      for (int i = 0; i < 8; ++i) {
        m[at + i] = static_cast<std::uint8_t>(lie >> (8 * i));
      }
      break;
    }
  }
  return m;
}

bool same_outcome(const catsched::opt::EvalOutcome& a,
                  const catsched::opt::EvalOutcome& b) {
  return std::bit_cast<std::uint64_t>(a.value) ==
             std::bit_cast<std::uint64_t>(b.value) &&
         a.feasible == b.feasible;
}

TEST(SnapshotCodec, MutatedEvaluationTablesAreRejectedOrDecodeExactly) {
  // Every mutant is re-framed, so the checksum passes and the decoder
  // itself sees the damage. It must either raise a typed SnapshotError or
  // return a table whose encoding is the mutant byte for byte; the same
  // bytes resumed from a file must fail or preload exactly that table.
  namespace core = catsched::core;
  namespace opt = catsched::opt;
  const opt::EvaluationTable table = sweep_table();
  const std::vector<std::uint8_t> payload = opt::encode_evaluation_table(table);
  const std::vector<std::size_t> counts = count_offsets(table);
  catsched::testgen::SplitMix64 rng(20181);
  int accepted = 0;
  int truncated = 0;
  int bad_value = 0;
  constexpr int kMutants = 600;
  for (int k = 0; k < kMutants; ++k) {
    SCOPED_TRACE("mutant " + std::to_string(k));
    const std::vector<std::uint8_t> mutant = mutate(payload, counts, rng, k);
    const auto framed =
        core::frame_snapshot(core::kSnapshotKindEvaluationTable, mutant);

    std::optional<opt::EvaluationTable> decoded;
    try {
      decoded = opt::decode_evaluation_table(core::unframe_snapshot(
          framed, core::kSnapshotKindEvaluationTable));
    } catch (const SnapshotError& e) {
      ASSERT_TRUE(e.code() == SnapshotErrc::truncated ||
                  e.code() == SnapshotErrc::bad_value)
          << catsched::core::to_string(e.code());
      (e.code() == SnapshotErrc::truncated ? truncated : bad_value) += 1;
    }
    if (decoded) {
      ++accepted;
      ASSERT_EQ(opt::encode_evaluation_table(*decoded), mutant);
    }

    TempSnapshotPath p("mutant");
    core::write_snapshot_file(p.str(), core::kSnapshotKindEvaluationTable,
                              mutant);
    int objective_calls = 0;
    opt::EvalCache cache([&](const std::vector<int>&) {
      ++objective_calls;
      return opt::EvalOutcome{};
    });
    cache.enable_checkpoints(p.str(), 1 << 20);
    bool resumed = false;
    try {
      resumed = cache.try_resume();
    } catch (const SnapshotError&) {
      ASSERT_FALSE(decoded) << "file resume rejected a decodable payload";
      continue;
    }
    ASSERT_TRUE(decoded) << "file resume accepted an undecodable payload";
    ASSERT_TRUE(resumed);
    // The first occurrence of a point wins, as in preload().
    for (std::size_t i = 0; i < decoded->size(); ++i) {
      const auto& [point, outcome] = (*decoded)[i];
      const auto first = std::find_if(
          decoded->begin(), decoded->end(),
          [&](const auto& entry) { return entry.first == point; });
      if (first - decoded->begin() == static_cast<std::ptrdiff_t>(i)) {
        EXPECT_TRUE(same_outcome(cache.evaluate(point), outcome));
      }
    }
    EXPECT_EQ(objective_calls, 0);
  }
  // The sweep reached every outcome class.
  RecordProperty("accepted", accepted);
  RecordProperty("truncated", truncated);
  RecordProperty("bad_value", bad_value);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(truncated, 0);
  EXPECT_GT(bad_value, 0);
  EXPECT_EQ(accepted + truncated + bad_value, kMutants);
}

TEST(SnapshotCodec, InterleavedStateLyingCountIsTruncated) {
  // The interleaved search resumes through its evaluation-table journal:
  // it loads the checkpoint before it runs any design.
  namespace core = catsched::core;
  core::Evaluator ev(core::date18_case_study(),
                     core::date18_design_options());
  const auto start = catsched::sched::InterleavedSchedule::from_periodic(
      catsched::sched::PeriodicSchedule({3, 2, 3}));
  int case_no = 0;
  for (const auto& payload : lying_count_payloads()) {
    TempSnapshotPath p("lying_interleaved_" + std::to_string(case_no++));
    core::write_snapshot_file(p.str(), core::kSnapshotKindEvaluationTable,
                              payload);
    core::InterleavedSearchOptions opts;
    opts.anytime.checkpoint_path = p.str();
    try {
      core::interleaved_search(ev, start, opts);
      FAIL() << "lying entry count accepted";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.code(), SnapshotErrc::truncated);
    }
  }
  EXPECT_EQ(ev.designs_run(), 0);
}

TEST(SnapshotCodec, RetiredInterleavedKindIsRejected) {
  // Kind 2 was the interleaved search's own published-state snapshot; the
  // search now journals an evaluation table like every other search, so an
  // old file is a valid snapshot of the wrong kind.
  namespace core = catsched::core;
  constexpr std::uint32_t kRetiredInterleavedKind = 2;
  core::Evaluator ev(core::date18_case_study(),
                     core::date18_design_options());
  const auto start = catsched::sched::InterleavedSchedule::from_periodic(
      catsched::sched::PeriodicSchedule({3, 2, 3}));
  TempSnapshotPath p("retired_interleaved_kind");
  SnapshotWriter w;
  w.put_u64(0);
  core::write_snapshot_file(p.str(), kRetiredInterleavedKind, w.take());
  core::InterleavedSearchOptions opts;
  opts.anytime.checkpoint_path = p.str();
  try {
    core::interleaved_search(ev, start, opts);
    FAIL() << "retired snapshot kind accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::bad_kind);
  }
  EXPECT_EQ(ev.designs_run(), 0);
}

}  // namespace
