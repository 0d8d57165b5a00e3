// Unit tests for futrace::support: small_vector, arena, rng, stats, table,
// flags, ptr_map.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "futrace/detect/event_ring.hpp"
#include "futrace/support/arena.hpp"
#include "futrace/support/broadcast_ring.hpp"
#include "futrace/support/flags.hpp"
#include "futrace/support/json.hpp"
#include "futrace/support/ptr_map.hpp"
#include "futrace/support/rng.hpp"
#include "futrace/support/small_vector.hpp"
#include "futrace/support/stats.hpp"
#include "futrace/support/table.hpp"

#if defined(__linux__)
#include <unistd.h>
#endif

namespace futrace::support {
namespace {

// ---------------------------------------------------------------- small_vector

TEST(SmallVector, StartsEmptyInline) {
  small_vector<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.uses_inline_storage());
  EXPECT_EQ(v.capacity(), 4u);
}

TEST(SmallVector, PushWithinInlineCapacity) {
  small_vector<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.uses_inline_storage());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVector, SpillsToHeapAndPreservesContents) {
  small_vector<int, 2> v;
  for (int i = 0; i < 100; ++i) v.push_back(i * 7);
  EXPECT_FALSE(v.uses_inline_storage());
  EXPECT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i * 7);
}

TEST(SmallVector, EraseUnorderedRemovesBySwap) {
  small_vector<int, 4> v{10, 20, 30, 40};
  v.erase_unordered(1);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_FALSE(v.contains(20));
  EXPECT_TRUE(v.contains(10));
  EXPECT_TRUE(v.contains(30));
  EXPECT_TRUE(v.contains(40));
}

TEST(SmallVector, EraseUnorderedLastElement) {
  small_vector<int, 2> v{1, 2, 3};
  v.erase_unordered(2);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_FALSE(v.contains(3));
}

TEST(SmallVector, CopyPreservesIndependence) {
  small_vector<int, 2> a{1, 2, 3};
  small_vector<int, 2> b = a;
  b.push_back(4);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(a, (small_vector<int, 2>{1, 2, 3}));
}

TEST(SmallVector, MoveFromHeapStealsBuffer) {
  small_vector<int, 2> a;
  for (int i = 0; i < 50; ++i) a.push_back(i);
  small_vector<int, 2> b = std::move(a);
  EXPECT_EQ(b.size(), 50u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b[49], 49);
}

TEST(SmallVector, MoveFromInlineCopies) {
  small_vector<int, 4> a{1, 2};
  small_vector<int, 4> b = std::move(a);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_TRUE(b.uses_inline_storage());
}

TEST(SmallVector, AppendConcatenates) {
  small_vector<int, 2> a{1, 2};
  small_vector<int, 2> b{3, 4, 5};
  a.append(b);
  EXPECT_EQ(a, (small_vector<int, 2>{1, 2, 3, 4, 5}));
}

TEST(SmallVector, ResizeGrowsWithFill) {
  small_vector<int, 2> v;
  v.resize(5, 9);
  EXPECT_EQ(v.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(v[i], 9);
  v.resize(2);
  EXPECT_EQ(v.size(), 2u);
}

// ----------------------------------------------------------------------- arena

TEST(Arena, AllocationsAreAligned) {
  arena a(128);
  for (std::size_t align : {1u, 2u, 4u, 8u, 16u, 64u}) {
    void* p = a.allocate(3, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "align=" << align;
  }
}

TEST(Arena, CreateConstructsObjects) {
  arena a;
  struct point {
    int x, y;
  };
  point* p = a.create<point>(3, 4);
  EXPECT_EQ(p->x, 3);
  EXPECT_EQ(p->y, 4);
}

TEST(Arena, GrowsPastBlockSize) {
  arena a(64);
  std::set<void*> seen;
  for (int i = 0; i < 1000; ++i) {
    void* p = a.allocate(48, 8);
    EXPECT_TRUE(seen.insert(p).second) << "allocation reused while live";
  }
  EXPECT_GE(a.bytes_used(), 48u * 1000);
  EXPECT_GE(a.bytes_reserved(), a.bytes_used());
}

TEST(Arena, OversizedAllocationGetsOwnBlock) {
  arena a(64);
  void* p = a.allocate(4096, 16);
  EXPECT_NE(p, nullptr);
}

TEST(Arena, ResetReleasesAccounting) {
  arena a;
  a.allocate(100, 8);
  a.reset();
  EXPECT_EQ(a.bytes_used(), 0u);
  EXPECT_EQ(a.bytes_reserved(), 0u);
}

// ------------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b();
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  xoshiro256 r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  xoshiro256 r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
  xoshiro256 r(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  xoshiro256 r(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

// ----------------------------------------------------------------------- stats

TEST(RunningStats, MeanMinMax) {
  running_stats s;
  for (double x : {4.0, 8.0, 6.0, 2.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
}

TEST(RunningStats, VarianceMatchesTextbook) {
  running_stats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(RunningStats, MergeEqualsSequential) {
  running_stats all, left, right;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37;
    all.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
}

TEST(SampleSet, PercentilesInterpolate) {
  sample_set s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.mean(), 25.0);
}

// ----------------------------------------------------------------------- table

TEST(TextTable, WithCommas) {
  EXPECT_EQ(text_table::with_commas(0), "0");
  EXPECT_EQ(text_table::with_commas(999), "999");
  EXPECT_EQ(text_table::with_commas(1000), "1,000");
  EXPECT_EQ(text_table::with_commas(1150000682ULL), "1,150,000,682");
}

TEST(TextTable, FixedPrecision) {
  EXPECT_EQ(text_table::fixed(9.923, 2), "9.92");
  EXPECT_EQ(text_table::fixed(1.0, 2), "1.00");
}

TEST(TextTable, RendersAlignedRows) {
  text_table t({"Benchmark", "Slowdown"});
  t.add_row({"Jacobi", "8.05"});
  t.add_row({"Smith-Waterman", "9.92"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Benchmark"), std::string::npos);
  EXPECT_NE(out.find("9.92"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

// ----------------------------------------------------------------------- flags

TEST(Flags, DefaultsAndOverrides) {
  flag_parser p;
  p.define("size", "100", "problem size")
      .define("scale", "1.5", "scale factor")
      .define("verify", "false", "run self check");
  const char* argv[] = {"prog", "--size=250", "--verify"};
  p.parse(3, const_cast<char**>(argv));
  EXPECT_EQ(p.get_int("size"), 250);
  EXPECT_DOUBLE_EQ(p.get_double("scale"), 1.5);
  EXPECT_TRUE(p.get_bool("verify"));
}

TEST(Flags, SpaceSeparatedValue) {
  flag_parser p;
  p.define("name", "x", "a name");
  const char* argv[] = {"prog", "--name", "series"};
  p.parse(3, const_cast<char**>(argv));
  EXPECT_EQ(p.get_string("name"), "series");
}

TEST(Flags, PositionalArgumentsCollected) {
  flag_parser p;
  p.define("n", "1", "count");
  const char* argv[] = {"prog", "alpha", "--n=3", "beta"};
  p.parse(4, const_cast<char**>(argv));
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "alpha");
  EXPECT_EQ(p.positional()[1], "beta");
}

TEST(Flags, DuplicateKeepsLastValueAndWarns) {
  flag_parser p;
  p.define("scale", "1", "size multiplier");
  const char* argv[] = {"prog", "--scale=2", "--scale=8"};
  const auto result = p.try_parse(3, const_cast<char**>(argv));
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(p.get_int("scale"), 8);  // last one wins
  ASSERT_EQ(result.warnings.size(), 1u);
  EXPECT_NE(result.warnings[0].find("duplicate flag --scale"),
            std::string::npos);
  EXPECT_NE(result.warnings[0].find("'2' overridden by '8'"),
            std::string::npos);
  EXPECT_EQ(p.warnings(), result.warnings);
}

TEST(Flags, DuplicateWithSameValueIsQuiet) {
  flag_parser p;
  p.define("json", "false", "emit json");
  const char* argv[] = {"prog", "--json=true", "--json=true"};
  const auto result = p.try_parse(3, const_cast<char**>(argv));
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(p.get_bool("json"));
  EXPECT_TRUE(result.warnings.empty());
}

TEST(Flags, TryParseReportsUnknownFlagWithoutExiting) {
  flag_parser p;
  p.define("n", "1", "count");
  const char* argv[] = {"prog", "--bogus=3"};
  const auto result = p.try_parse(2, const_cast<char**>(argv));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown flag --bogus"), std::string::npos);
}

TEST(Flags, TryParseReportsHelp) {
  flag_parser p;
  p.define("n", "1", "count");
  const char* argv[] = {"prog", "--help"};
  const auto result = p.try_parse(2, const_cast<char**>(argv));
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.help_requested);
}

TEST(Flags, SetFlagsResetBetweenParses) {
  flag_parser p;
  p.define("n", "1", "count");
  const char* argv1[] = {"prog", "--n=5"};
  EXPECT_TRUE(p.try_parse(2, const_cast<char**>(argv1)).ok);
  // A second parse must not see the first parse's assignment as a
  // duplicate of its own.
  const char* argv2[] = {"prog", "--n=7"};
  const auto result = p.try_parse(2, const_cast<char**>(argv2));
  EXPECT_TRUE(result.warnings.empty());
  EXPECT_EQ(p.get_int("n"), 7);
}

// The exact flag vocabulary of the bench/tool drivers, as regression cover
// for their real invocations (CI calls these with duplicates impossible,
// but a typoed doubled flag must warn, not silently drop a value).
TEST(Flags, Table2FlagSetParses) {
  flag_parser p;
  p.define("scale", "1", "")
      .define("repeats", "3", "")
      .define("json", "false", "")
      .define("json-out", "BENCH_table2.json", "")
      .define("no-fastpath", "false", "")
      .define("detect-threads", "0", "")
      .define("rows", "", "")
      .define("trace", "", "");
  const char* argv[] = {"prog",          "--scale=2",   "--repeats", "5",
                        "--json",        "--rows=Jacobi", "--scale=4"};
  const auto result = p.try_parse(7, const_cast<char**>(argv));
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(p.get_int("scale"), 4);
  EXPECT_EQ(p.get_int("repeats"), 5);
  EXPECT_TRUE(p.get_bool("json"));
  EXPECT_EQ(p.get_string("rows"), "Jacobi");
  ASSERT_EQ(result.warnings.size(), 1u);
  EXPECT_NE(result.warnings[0].find("duplicate flag --scale"),
            std::string::npos);
}

TEST(Flags, FaultSoakFlagSetParses) {
  flag_parser p;
  p.define("seeds", "200", "")
      .define("seed-base", "1", "")
      .define("watchdog-ms", "600", "")
      .define("stress-accesses", "0", "")
      .define("pipe-seeds", "0", "")
      .define("metrics-out", "", "");
  const char* argv[] = {"prog", "--seeds", "12", "--watchdog-ms=250",
                        "--metrics-out=/tmp/m.json"};
  const auto result = p.try_parse(5, const_cast<char**>(argv));
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.warnings.empty());
  EXPECT_EQ(p.get_int("seeds"), 12);
  EXPECT_EQ(p.get_int("watchdog-ms"), 250);
  EXPECT_EQ(p.get_string("metrics-out"), "/tmp/m.json");
}

// --------------------------------------------------------------------- ptr_map

TEST(PtrMap, InsertAndFind) {
  ptr_map<int> m;
  int dummy[4] = {};
  m[&dummy[0]] = 10;
  m[&dummy[2]] = 20;
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(&dummy[0]), nullptr);
  EXPECT_EQ(*m.find(&dummy[0]), 10);
  EXPECT_EQ(*m.find(&dummy[2]), 20);
  EXPECT_EQ(m.find(&dummy[1]), nullptr);
}

TEST(PtrMap, OperatorBracketDefaultConstructs) {
  ptr_map<int> m;
  int x = 0;
  EXPECT_EQ(m[&x], 0);
  m[&x] = 7;
  EXPECT_EQ(m[&x], 7);
  EXPECT_EQ(m.size(), 1u);
}

TEST(PtrMap, SurvivesGrowth) {
  ptr_map<std::size_t> m(16);
  std::vector<int> storage(10000);
  for (std::size_t i = 0; i < storage.size(); ++i) m[&storage[i]] = i;
  EXPECT_EQ(m.size(), storage.size());
  for (std::size_t i = 0; i < storage.size(); ++i) {
    ASSERT_NE(m.find(&storage[i]), nullptr);
    EXPECT_EQ(*m.find(&storage[i]), i);
  }
}

TEST(PtrMap, ForEachVisitsEveryEntry) {
  ptr_map<int> m;
  int cells[5] = {};
  for (int i = 0; i < 5; ++i) m[&cells[i]] = i;
  int count = 0, sum = 0;
  m.for_each([&](const void*, int& v) {
    ++count;
    sum += v;
  });
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sum, 0 + 1 + 2 + 3 + 4);
}

TEST(PtrMap, ValueWithHeapStateSurvivesGrowth) {
  ptr_map<std::vector<int>> m(16);
  std::vector<int> keys(300);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    m[&keys[i]].push_back(static_cast<int>(i));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(m[&keys[i]].size(), 1u);
    EXPECT_EQ(m[&keys[i]][0], static_cast<int>(i));
  }
}

TEST(PtrMap, EraseRemovesAndReports) {
  ptr_map<int> m;
  int dummy[4] = {};
  m[&dummy[0]] = 10;
  m[&dummy[2]] = 20;
  EXPECT_TRUE(m.erase(&dummy[0]));
  EXPECT_FALSE(m.erase(&dummy[0]));  // already gone
  EXPECT_FALSE(m.erase(&dummy[1]));  // never present
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.find(&dummy[0]), nullptr);
  ASSERT_NE(m.find(&dummy[2]), nullptr);
  EXPECT_EQ(*m.find(&dummy[2]), 20);
}

TEST(PtrMap, EraseResetsVacatedValue) {
  // Shadow cells keep a raw overflow pointer; erase() must not leave a
  // moved-out copy of it behind in a dead slot, or re-inserting the key
  // would resurrect a dangling pointer.
  ptr_map<int> m;
  int x = 0;
  m[&x] = 42;
  m.erase(&x);
  EXPECT_EQ(m[&x], 0) << "re-inserted key must see a fresh value";
}

TEST(PtrMap, EraseUnderCollisionClusterKeepsProbeChainsIntact) {
  // Small table, many keys: adjacent addresses force dense probe clusters.
  // Backward-shift deletion must keep every remaining key findable no
  // matter which cluster member is removed.
  ptr_map<std::size_t> m(16);
  std::vector<int> storage(512);
  for (std::size_t i = 0; i < storage.size(); ++i) m[&storage[i]] = i;
  // Erase every third key, checking the survivors after each removal wave.
  for (std::size_t i = 0; i < storage.size(); i += 3) {
    EXPECT_TRUE(m.erase(&storage[i]));
  }
  for (std::size_t i = 0; i < storage.size(); ++i) {
    if (i % 3 == 0) {
      EXPECT_EQ(m.find(&storage[i]), nullptr);
    } else {
      ASSERT_NE(m.find(&storage[i]), nullptr);
      EXPECT_EQ(*m.find(&storage[i]), i);
    }
  }
  // Erased keys can be re-inserted and found again.
  for (std::size_t i = 0; i < storage.size(); i += 3) m[&storage[i]] = i * 7;
  for (std::size_t i = 0; i < storage.size(); i += 3) {
    ASSERT_NE(m.find(&storage[i]), nullptr);
    EXPECT_EQ(*m.find(&storage[i]), i * 7);
  }
}

TEST(PtrMap, TableAllocatedAtFirstInsert) {
  // Slot = 8-byte key + 8-byte value: the table's bytes count its slots.
  constexpr std::size_t k_slot = 2 * sizeof(std::uintptr_t);
  ptr_map<std::uintptr_t> m;
  int keys[2] = {};
  EXPECT_EQ(m.table_bytes(), 0u);
  EXPECT_EQ(m.find(&keys[0]), nullptr);
  EXPECT_FALSE(m.erase(&keys[0]));
  int visited = 0;
  m.for_each([&](const void*, std::uintptr_t&) { ++visited; });
  EXPECT_EQ(visited, 0);
  m.shrink();
  EXPECT_EQ(m.table_bytes(), 0u);
  // A byte-capped owner decides on the first table before inserting.
  EXPECT_EQ(m.bytes_after_insert(), 1024 * k_slot);

  m[&keys[0]] = 5;
  EXPECT_EQ(m.table_bytes(), 1024 * k_slot);
  ASSERT_NE(m.find(&keys[0]), nullptr);
  EXPECT_EQ(*m.find(&keys[0]), 5u);

  // Erased back to empty: the table stays, lookups still answer.
  EXPECT_TRUE(m.erase(&keys[0]));
  EXPECT_EQ(m.find(&keys[0]), nullptr);
  EXPECT_FALSE(m.erase(&keys[1]));
  EXPECT_EQ(m.table_bytes(), 1024 * k_slot);
  m[&keys[1]] = 6;
  EXPECT_EQ(*m.find(&keys[1]), 6u);

  ptr_map<std::uintptr_t> small(16);
  EXPECT_EQ(small.table_bytes(), 0u);
  EXPECT_EQ(small.bytes_after_insert(), 16 * k_slot);
  small[&keys[0]] = 1;
  EXPECT_EQ(small.table_bytes(), 16 * k_slot);
}

TEST(PtrMap, CollisionClusteringStaysBoundedAtTargetLoad) {
  // At the 50% load target a linear-probe lookup should stay near one
  // probe; sequential addresses are the worst realistic case because they
  // share high-entropy-free low bits. This guards the splitmix64 hashing
  // against regressions to weaker mixers.
  ptr_map<int> m;
  std::vector<int> storage(8192);
  for (std::size_t i = 0; i < storage.size(); ++i) {
    m[&storage[i]] = static_cast<int>(i);
  }
  for (std::size_t i = 0; i < storage.size(); ++i) {
    ASSERT_NE(m.find(&storage[i]), nullptr);
  }
  // The table doubled/quadrupled past 50% load: bytes stay within 4x of
  // the minimum power-of-two capacity for this entry count.
  EXPECT_LE(m.table_bytes(),
            4 * 2 * storage.size() * (sizeof(void*) + sizeof(int)));
}

// ------------------------------------------------------------------------ json

TEST(Json, BuildAndDump) {
  json doc = json::object();
  doc["name"] = "table2";
  doc["scale"] = 2;
  doc["verified"] = true;
  json rows = json::array();
  json row = json::object();
  row["slowdown"] = 1.5;
  rows.push_back(row);
  doc["rows"] = rows;
  const std::string text = doc.dump(0);
  EXPECT_EQ(text,
            "{\"name\":\"table2\",\"scale\":2,\"verified\":true,"
            "\"rows\":[{\"slowdown\":1.5}]}\n");
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      "{\"a\": [1, 2.5, -3], \"b\": {\"c\": \"x\\ny\", \"d\": null}, "
      "\"e\": false}";
  const json doc = json::parse(text);
  ASSERT_TRUE(doc.is_object());
  const json* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), 3u);
  EXPECT_EQ(a->at(0).as_double(), 1.0);
  EXPECT_EQ(a->at(1).as_double(), 2.5);
  EXPECT_EQ(a->at(2).as_double(), -3.0);
  const json* c = doc.find("b")->find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->as_string(), "x\ny");
  EXPECT_TRUE(doc.find("b")->find("d")->is_null());
  EXPECT_FALSE(doc.find("e")->as_bool());
  // dump → parse → dump is a fixed point.
  EXPECT_EQ(json::parse(doc.dump()).dump(), doc.dump());
}

TEST(Json, IntegersRoundTripExactly) {
  json doc = json::object();
  doc["big"] = std::uint64_t{1} << 50;
  const json back = json::parse(doc.dump());
  EXPECT_EQ(back.find("big")->as_double(),
            static_cast<double>(std::uint64_t{1} << 50));
  EXPECT_NE(doc.dump().find("1125899906842624"), std::string::npos)
      << "integral values must print without an exponent";
}

TEST(Json, ParseErrorsCarryOffset) {
  EXPECT_THROW(json::parse("{\"a\": }"), json_parse_error);
  EXPECT_THROW(json::parse("[1, 2"), json_parse_error);
  EXPECT_THROW(json::parse("{} trailing"), json_parse_error);
  try {
    json::parse("[tru]");
    FAIL() << "expected json_parse_error";
  } catch (const json_parse_error& e) {
    EXPECT_GT(std::string(e.what()).size(), 0u);
  }
}

TEST(Json, ParsesGoogleBenchmarkShape) {
  // The shape --benchmark_out writes; bench_diff must walk it.
  const json doc = json::parse(R"({
    "context": {"date": "2026-08-07T12:00:00", "num_cpus": 8},
    "benchmarks": [
      {"name": "BM_PtrMapHit/1024", "real_time": 12.5, "cpu_time": 12.4,
       "time_unit": "ns", "iterations": 1000000}
    ]
  })");
  const json* benches = doc.find("benchmarks");
  ASSERT_NE(benches, nullptr);
  ASSERT_EQ(benches->size(), 1u);
  EXPECT_EQ(benches->at(0).find("name")->as_string(), "BM_PtrMapHit/1024");
  EXPECT_EQ(benches->at(0).find("real_time")->as_double(), 12.5);
}

// -------------------------------------------------------------- broadcast_ring

TEST(BroadcastRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(broadcast_ring<int>(1, 1).capacity(), 2u);
  EXPECT_EQ(broadcast_ring<int>(4, 1).capacity(), 4u);
  EXPECT_EQ(broadcast_ring<int>(5, 3).capacity(), 8u);
  EXPECT_EQ(broadcast_ring<int>(1000, 2).capacity(), 1024u);
  EXPECT_EQ(broadcast_ring<int>(8, 3).consumers(), 3u);
}

TEST(BroadcastRing, PublishConsumeBatch) {
  broadcast_ring<int> ring(8, 1);
  EXPECT_EQ(ring.free_slots(), 8u);
  EXPECT_EQ(ring.readable(0), 0u);
  for (int i = 0; i < 5; ++i) ring.push(i * 10);
  ring.flush();
  EXPECT_EQ(ring.free_slots(), 3u);
  ASSERT_EQ(ring.readable(0), 5u);
  EXPECT_EQ(ring.position(0), 0u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ring.consume_slot(0, i), static_cast<int>(i) * 10);
  }
  ring.pop(0, 5);
  EXPECT_EQ(ring.readable(0), 0u);
  EXPECT_EQ(ring.position(0), 5u);
  // free_slots refreshes its view of the heads lazily (only when the
  // cached view looks full), so it may under-report after a pop — but a
  // full round of produce/consume must be possible again.
  for (int round = 0; round < 4; ++round) {
    ASSERT_GE(ring.free_slots(), 1u);
    ring.push(round);
    ring.flush();
    ASSERT_GE(ring.readable_refresh(0), 1u);
    EXPECT_EQ(ring.consume_slot(0, 0), round);
    ring.pop(0, 1);
  }
}

// Staged slots are the producer's business until the run reaches the
// publish batch or the producer flushes: no consumer may see any of them
// before, and every consumer sees all of them (in one store) after.
TEST(BroadcastRing, StagedSlotsInvisibleUntilBatchOrFlush) {
  broadcast_ring<int> ring(128, 2);
  constexpr std::size_t kBatch = broadcast_ring<int>::k_publish_batch;
  ASSERT_LT(kBatch + 8, ring.capacity());
  for (std::size_t i = 0; i + 1 < kBatch; ++i) {
    ring.push(static_cast<int>(i));
    ASSERT_EQ(ring.readable_refresh(0), 0u) << "staged " << i + 1;
    ASSERT_EQ(ring.readable_refresh(1), 0u) << "staged " << i + 1;
    ASSERT_EQ(ring.size_approx(), 0u);
  }
  EXPECT_EQ(ring.produced(), kBatch - 1);
  // The slot that fills the batch publishes the whole run.
  ring.push(static_cast<int>(kBatch - 1));
  for (unsigned c = 0; c < 2; ++c) {
    ASSERT_EQ(ring.readable_refresh(c), kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      EXPECT_EQ(ring.consume_slot(c, i), static_cast<int>(i));
    }
    ring.pop(c, kBatch);
  }

  // A short run stays invisible until flush().
  for (int i = 0; i < 3; ++i) ring.push(100 + i);
  EXPECT_EQ(ring.readable_refresh(0), 0u);
  ring.flush();
  ASSERT_EQ(ring.readable_refresh(0), 3u);
  ring.flush();  // nothing staged: no-op
  EXPECT_EQ(ring.readable_refresh(0), 3u);
  for (unsigned c = 0; c < 2; ++c) {
    ASSERT_EQ(ring.readable_refresh(c), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(ring.consume_slot(c, i), 100 + static_cast<int>(i));
    }
    ring.pop(c, 3);
  }
}

// Staged slots occupy the ring: free_slots() must count them, or a flush
// would copy the block over slots a consumer has not retired. A producer
// with more items than room stages only what fits (partial fit) and waits
// for the consumers to free the rest.
TEST(BroadcastRing, FreeSlotsCountStagedSlots) {
  broadcast_ring<int> ring(8, 1);
  EXPECT_EQ(ring.free_slots(), 8u);
  for (int i = 0; i < 5; ++i) ring.push(100 + i);
  EXPECT_EQ(ring.produced(), 5u);
  EXPECT_EQ(ring.free_slots(), 3u);
  EXPECT_EQ(ring.free_slots_refresh(), 3u);
  EXPECT_EQ(ring.readable_refresh(0), 0u);
  // Twelve items wanted, three fit.
  const std::size_t fit = ring.free_slots();
  for (std::size_t i = 0; i < fit; ++i) ring.push(105 + static_cast<int>(i));
  EXPECT_EQ(ring.free_slots(), 0u);
  EXPECT_EQ(ring.free_slots_refresh(), 0u);
  ring.flush();
  ASSERT_EQ(ring.readable_refresh(0), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(ring.consume_slot(0, i), 100 + static_cast<int>(i));
  }
  ring.pop(0, 3);
  EXPECT_EQ(ring.free_slots(), 3u);  // the full view refreshes
  ring.push(7);
  EXPECT_EQ(ring.free_slots(), 2u);
}

// Heads and tail advance so staged runs straddle the buffer end, partly
// behind published-but-unconsumed slots: the flush must wrap a run that
// crosses the seam, and every read must route through the mask.
TEST(BroadcastRing, StagingWrapsAcrossTheSeam) {
  broadcast_ring<std::uint64_t> ring(8, 1);
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  for (int round = 0; round < 12; ++round) {
    // Two staged runs of uneven length, one flush.
    for (const std::size_t run : {std::size_t{4}, std::size_t{2}}) {
      ASSERT_GE(ring.free_slots_refresh(), run) << "round " << round;
      for (std::size_t i = 0; i < run; ++i) ring.push(next_in++);
    }
    ring.flush();
    // Leave one slot unconsumed on odd rounds so the seam keeps moving.
    const std::size_t n = ring.readable_refresh(0);
    const std::size_t take = (round % 2 == 1) ? n - 1 : n;
    for (std::size_t i = 0; i < take; ++i) {
      EXPECT_EQ(ring.consume_slot(0, i), next_out++);
    }
    ring.pop(0, take);
  }
  const std::size_t rest = ring.drain(0, [&](std::uint64_t pos,
                                             std::uint64_t v) {
    EXPECT_EQ(pos, next_out);
    EXPECT_EQ(v, next_out++);
  });
  EXPECT_GT(rest, 0u);
  EXPECT_EQ(ring.readable_refresh(0), 0u);
  EXPECT_EQ(next_out, next_in);
}

TEST(BroadcastRing, StagedTwoThreadStress) {
  // Uneven staged runs (1..7 slots), flushes at irregular points and
  // before every wait for space, and a consumer retiring uneven chunks:
  // every value exactly once, in order.
  broadcast_ring<std::uint64_t> ring(32, 1);
  constexpr std::uint64_t kItems = 50000;
  std::atomic<bool> failed{false};
  std::thread consumer([&] {
    std::uint64_t expect = 0;
    std::size_t chunk = 1;
    while (expect < kItems) {
      const std::size_t n = ring.readable(0);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      const std::size_t take = n < chunk ? n : chunk;
      chunk = chunk % 13 + 1;
      for (std::size_t i = 0; i < take; ++i) {
        if (ring.consume_slot(0, i) != expect + i) {
          failed.store(true);
          return;
        }
      }
      expect += take;
      ring.pop(0, take);
    }
  });
  std::uint64_t produced = 0;
  std::uint64_t runs = 0;
  while (produced < kItems) {
    std::size_t run = static_cast<std::size_t>(runs % 7) + 1;
    if (run > kItems - produced) run = static_cast<std::size_t>(kItems - produced);
    if (ring.free_slots() < run) {
      ring.flush();
      while (ring.free_slots_refresh() < run) std::this_thread::yield();
    }
    for (std::size_t i = 0; i < run; ++i) ring.push(produced + i);
    produced += run;
    if (++runs % 5 == 0) ring.flush();
  }
  ring.flush();
  consumer.join();
  EXPECT_FALSE(failed.load());
}

// The flush copies a staged block into the slot array in one burst, slot by
// slot through the mask, wrapping at the end of the array. Runs of 1..33
// slots, each followed by a flush (a 33-slot run also flushes a full block
// on its own), start staged blocks at every offset of a 64-slot ring, so
// many of them cross the seam; three consumers drain concurrently, and
// each must read every value once, at its position.
TEST(BroadcastRing, StagedBatchCopiesAcrossEverySeamOffset) {
  constexpr std::size_t kCapacity = 64;
  constexpr std::size_t kBatch = broadcast_ring<std::uint64_t>::k_publish_batch;
  constexpr unsigned kConsumers = 3;
  broadcast_ring<std::uint64_t> ring(kCapacity, kConsumers);
  ASSERT_EQ(ring.capacity(), kCapacity);
  // Cycle the run lengths until the blocks they stage have started at every
  // offset (the same arithmetic the producer below checks on the ring).
  std::vector<std::size_t> runs;
  std::uint64_t total = 0;
  {
    std::vector<bool> covered(kCapacity, false);
    std::size_t uncovered = kCapacity;
    for (std::size_t k = 0; uncovered > 0; ++k) {
      const std::size_t run = k % (kBatch + 1) + 1;
      for (std::size_t i = 0; i < run; i += kBatch) {
        const std::size_t offset = (total + i) % kCapacity;
        if (!covered[offset]) {
          covered[offset] = true;
          --uncovered;
        }
      }
      runs.push_back(run);
      total += run;
    }
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> consumers;
  for (unsigned c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      std::uint64_t expect = 0;
      while (expect < total && !failed.load()) {
        const std::size_t n = ring.readable(c);
        if (n == 0) {
          std::this_thread::yield();
          continue;
        }
        for (std::size_t i = 0; i < n; ++i) {
          if (ring.consume_slot(c, i) != expect + i ||
              ring.position(c) + i != expect + i) {
            failed.store(true);
            return;
          }
        }
        expect += n;
        ring.pop(c, n);
      }
    });
  }
  std::vector<bool> started(kCapacity, false);
  std::size_t crossings = 0;
  for (const std::size_t run : runs) {
    while (ring.free_slots_refresh() < run && !failed.load()) {
      std::this_thread::yield();
    }
    if (failed.load()) break;
    for (std::size_t i = 0; i < run; ++i) {
      if (i % kBatch == 0) {  // the block is empty: a batch starts here
        const std::size_t offset =
            static_cast<std::size_t>(ring.produced()) % kCapacity;
        started[offset] = true;
        if (offset + std::min(run - i, kBatch) > kCapacity) ++crossings;
      }
      ring.push(ring.produced());
    }
    ring.flush();
  }
  for (std::thread& t : consumers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(ring.produced(), total);
  for (std::size_t offset = 0; offset < kCapacity; ++offset) {
    EXPECT_TRUE(started[offset]) << "no batch started at offset " << offset;
  }
  EXPECT_GT(crossings, kCapacity / 2);
  for (unsigned c = 0; c < kConsumers; ++c) {
    EXPECT_EQ(ring.position(c), total);
  }
}

#if defined(__linux__)
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0;
  std::size_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

// The slot array is allocated, never initialised: building a 64 MiB ring
// must not make its pages resident. A value-initialising ring writes every
// slot and grows RSS by the full 64 MiB.
TEST(BroadcastRing, ConstructionTouchesNoSlots) {
  constexpr std::size_t kBytes = std::size_t{64} << 20;
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  detect::event_ring ring(kBytes / sizeof(detect::pipe_event), 3);
  const std::size_t after = resident_bytes();
  ASSERT_EQ(ring.capacity() * sizeof(detect::pipe_event), kBytes);
  const std::size_t grown = after > before ? after - before : 0;
  EXPECT_LT(grown, std::size_t{4} << 20);
  // Publishing a slot is what makes its page resident; the ring still
  // works.
  detect::pipe_event ev;
  ev.a = 42;
  ring.push(ev);
  ring.flush();
  for (unsigned c = 0; c < 3; ++c) {
    ASSERT_EQ(ring.readable_refresh(c), 1u);
    EXPECT_EQ(ring.consume_slot(c, 0).a, 42u);
    ring.pop(c, 1);
  }
}
#endif

TEST(BroadcastRing, WrapsAroundManyTimes) {
  broadcast_ring<std::uint64_t> ring(4, 1);
  std::uint64_t next_out = 0;
  for (std::uint64_t v = 0; v < 1000; ++v) {
    ASSERT_GE(ring.free_slots(), 1u);
    ring.push(v);
    ring.flush();
    if (ring.readable_refresh(0) == ring.capacity() || v == 999) {
      const std::size_t n = ring.readable_refresh(0);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(ring.consume_slot(0, i), next_out++);
      }
      ring.pop(0, n);
    }
  }
  EXPECT_EQ(next_out, 1000u);
}

TEST(BroadcastRing, FullMeansZeroFreeSlots) {
  broadcast_ring<int> ring(2, 1);
  ring.push(1);
  ring.push(2);
  ring.flush();
  EXPECT_EQ(ring.free_slots(), 0u);
  ASSERT_EQ(ring.readable(0), 2u);
  ring.pop(0, 1);
  EXPECT_EQ(ring.free_slots(), 1u);  // producer refreshes its head cache
}

// readable() deliberately skips the refresh while its cached view is
// nonempty; readable_refresh() must observe later publishes anyway — a
// checker's sweep and a takeover depend on it.
TEST(BroadcastRing, ReadableRefreshSeesNewSlotsBehindStaleCache) {
  broadcast_ring<int> ring(8, 2);
  ring.push(1);
  ring.flush();
  EXPECT_EQ(ring.readable(1), 1u);  // caches tail = 1
  ring.push(2);
  ring.flush();
  // The cached view is nonempty, so plain readable() may legitimately
  // still report 1; the refreshing variant must see both.
  EXPECT_EQ(ring.readable_refresh(1), 2u);
}

// The producer-side livelock shape: free_slots() only refreshes its cached
// minimum head when the view is COMPLETELY full, so a stale view showing
// 0 < free < need would spin forever on a wait for `need` slots no matter
// how far the consumers have advanced. free_slots_refresh() must see the
// drain.
TEST(BroadcastRing, FreeSlotsRefreshSeesDrainBehindStalePartialView) {
  broadcast_ring<int> ring(8, 2);
  for (int i = 0; i < 6; ++i) ring.push(i);
  ring.flush();
  EXPECT_EQ(ring.free_slots(), 2u);  // view: 2 free, not full, no refresh
  for (unsigned c = 0; c < 2; ++c) {
    ASSERT_EQ(ring.readable(c), 6u);
    ring.pop(c, 6);  // every consumer drains everything
  }
  // The lazy view still shows 2 free (it never looked full), which would
  // starve a producer waiting for, say, 4 slots.
  EXPECT_EQ(ring.free_slots(), 2u);
  EXPECT_EQ(ring.free_slots_refresh(), 8u);
  EXPECT_EQ(ring.free_slots(), 8u);  // cache now repaired
}

// Free space is measured from the slowest consumer: however far the others
// run ahead, the producer may not touch a slot one consumer still holds.
TEST(BroadcastRing, ProducerNeverOverwritesUnretiredSlot) {
  broadcast_ring<int> ring(8, 3);
  for (int i = 0; i < 8; ++i) ring.push(i);
  ring.flush();
  for (unsigned c = 0; c < 2; ++c) {
    ASSERT_EQ(ring.readable(c), 8u);
    ring.pop(c, 8);
  }
  EXPECT_EQ(ring.free_slots_refresh(), 0u);  // consumer 2 has retired nothing
  EXPECT_EQ(ring.size_approx(), 8u);
  ASSERT_EQ(ring.readable(2), 8u);
  ring.pop(2, 3);
  ASSERT_EQ(ring.free_slots_refresh(), 3u);
  for (int i = 0; i < 3; ++i) ring.push(8 + i);
  ring.flush();
  EXPECT_EQ(ring.free_slots_refresh(), 0u);
  // Consumer 2's five unretired slots are intact behind the new ones.
  ASSERT_EQ(ring.readable_refresh(2), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(ring.consume_slot(2, i), 3 + static_cast<int>(i));
  }
  for (unsigned c = 0; c < 2; ++c) {
    ASSERT_EQ(ring.readable_refresh(c), 3u);
    EXPECT_EQ(ring.consume_slot(c, 0), 8);
  }
}

// Three consumers at different speeds each see every slot, in order, at
// capacity 8 across thousands of wraps. A producer that overwrote a slot
// before its slowest consumer retired it would show as a wrong value.
TEST(BroadcastRing, ThreeConsumersSeeEverySlotInOrder) {
  broadcast_ring<std::uint64_t> ring(8, 3);
  constexpr std::uint64_t kItems = 40000;
  std::atomic<bool> failed{false};
  std::vector<std::thread> consumers;
  for (unsigned c = 0; c < 3; ++c) {
    consumers.emplace_back([&, c] {
      std::uint64_t expect = 0;
      std::size_t chunk = c + 1;
      while (expect < kItems) {
        const std::size_t n = ring.readable(c);
        if (n == 0) {
          std::this_thread::yield();
          continue;
        }
        const std::size_t take = n < chunk ? n : chunk;
        chunk = chunk % (3 + 2 * c) + 1;
        for (std::size_t i = 0; i < take; ++i) {
          if (ring.consume_slot(c, i) != expect + i ||
              ring.position(c) + i != expect + i) {
            failed.store(true);
            return;
          }
        }
        if (c == 2 && expect % 64 == 0) std::this_thread::yield();  // slowest
        expect += take;
        ring.pop(c, take);
      }
    });
  }
  std::uint64_t produced = 0;
  while (produced < kItems && !failed.load()) {
    if (ring.free_slots() == 0) {
      ring.flush();
      while (ring.free_slots_refresh() == 0 && !failed.load()) {
        std::this_thread::yield();
      }
      continue;
    }
    ring.push(produced++);
  }
  ring.flush();
  for (std::thread& t : consumers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(ring.produced(), kItems);
}

// A consumer that stops reading must neither block the producer nor lose an
// event. Its head passes to the producer (here, through a release/acquire
// flag), which moves its unread slots to a spill, in order, whenever the
// ring would otherwise be full. The spill followed by what is left of it in
// the ring is exactly the stream from where it stopped.
TEST(BroadcastRing, DeadConsumerSlotsReachItsSpillInOrder) {
  broadcast_ring<std::uint64_t> ring(8, 3);
  constexpr std::uint64_t kItems = 20000;
  constexpr std::uint64_t kDiesAt = 37;
  std::atomic<bool> dead{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> consumers;
  for (unsigned c = 0; c < 2; ++c) {
    consumers.emplace_back([&, c] {
      std::uint64_t expect = 0;
      while (expect < kItems) {
        const std::size_t n = ring.readable(c);
        if (n == 0) {
          std::this_thread::yield();
          continue;
        }
        for (std::size_t i = 0; i < n; ++i) {
          if (ring.consume_slot(c, i) != expect + i) failed.store(true);
        }
        expect += n;
        ring.pop(c, n);
      }
    });
  }
  std::thread mortal([&] {
    std::uint64_t expect = 0;
    while (expect < kDiesAt) {
      const std::size_t n = ring.readable(2);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      const std::size_t take =
          std::min<std::size_t>(n, static_cast<std::size_t>(kDiesAt - expect));
      for (std::size_t i = 0; i < take; ++i) {
        if (ring.consume_slot(2, i) != expect + i) failed.store(true);
      }
      expect += take;
      ring.pop(2, take);
    }
    dead.store(true, std::memory_order_release);  // its last act
  });
  std::vector<std::uint64_t> spill;
  std::vector<std::uint64_t> spill_pos;
  std::uint64_t produced = 0;
  while (produced < kItems) {
    if (ring.free_slots() == 0) {
      ring.flush();
      while (ring.free_slots_refresh() == 0) {
        if (dead.load(std::memory_order_acquire)) {
          ring.drain(2, [&](std::uint64_t pos, std::uint64_t v) {
            spill_pos.push_back(pos);
            spill.push_back(v);
          });
        } else {
          std::this_thread::yield();
        }
      }
    }
    ring.push(produced++);
  }
  ring.flush();
  for (std::thread& t : consumers) t.join();
  mortal.join();
  EXPECT_FALSE(failed.load());
  ASSERT_FALSE(spill.empty()) << "the producer never had to move the spill";
  ring.drain(2, [&](std::uint64_t pos, std::uint64_t v) {
    spill_pos.push_back(pos);
    spill.push_back(v);
  });
  ASSERT_EQ(spill.size(), kItems - kDiesAt);
  for (std::size_t i = 0; i < spill.size(); ++i) {
    ASSERT_EQ(spill[i], kDiesAt + i) << i;
    ASSERT_EQ(spill_pos[i], kDiesAt + i) << i;
  }
}

TEST(BroadcastRing, TwoThreadStress) {
  // 64-slot ring, 50k items, batched production: the consumer must see
  // every value exactly once, in order.
  broadcast_ring<std::uint64_t> ring(64, 1);
  constexpr std::uint64_t kItems = 50000;
  std::atomic<bool> failed{false};
  std::thread consumer([&] {
    std::uint64_t expect = 0;
    while (expect < kItems) {
      const std::size_t n = ring.readable(0);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (ring.consume_slot(0, i) != expect + i) {
          failed.store(true);
          return;
        }
      }
      expect += n;
      ring.pop(0, n);
    }
  });
  std::uint64_t produced = 0;
  while (produced < kItems) {
    std::size_t batch = ring.free_slots();
    if (batch == 0) {
      std::this_thread::yield();
      continue;
    }
    if (batch > kItems - produced) batch = kItems - produced;
    for (std::size_t i = 0; i < batch; ++i) ring.push(produced + i);
    ring.flush();
    produced += batch;
  }
  consumer.join();
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace futrace::support
