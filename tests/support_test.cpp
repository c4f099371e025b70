// Unit tests for src/support: strong ids, error primitives, the
// deterministic RNG, the statistics helpers (including the serve
// daemon's latency window), the lock-striped LRU cache, and the JSON
// escaper / double formatter / reader.

#include "core/quality.hpp"
#include "support/error.hpp"
#include "support/ids.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/sharded_lru.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"
#include "test_seed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

namespace mwl {
namespace {

// ---------------------------------------------------------------- ids --

TEST(StrongId, DefaultConstructedIsInvalid)
{
    op_id id;
    EXPECT_FALSE(id.is_valid());
    EXPECT_EQ(id, op_id::invalid());
}

TEST(StrongId, ValueRoundTrips)
{
    op_id id(42);
    EXPECT_TRUE(id.is_valid());
    EXPECT_EQ(id.value(), 42u);
}

TEST(StrongId, OrderingFollowsValues)
{
    EXPECT_LT(op_id(1), op_id(2));
    EXPECT_GT(op_id(5), op_id(3));
    EXPECT_EQ(op_id(7), op_id(7));
}

TEST(StrongId, DistinctTagsAreDistinctTypes)
{
    static_assert(!std::is_same_v<op_id, res_id>);
    static_assert(!std::is_same_v<res_id, clique_id>);
}

TEST(StrongId, HashWorksInUnorderedContainers)
{
    std::unordered_set<op_id> set;
    set.insert(op_id(1));
    set.insert(op_id(2));
    set.insert(op_id(1));
    EXPECT_EQ(set.size(), 2u);
}

TEST(StrongId, UsableAsOrderedKey)
{
    std::set<res_id> set{res_id(3), res_id(1), res_id(2)};
    EXPECT_EQ(set.begin()->value(), 1u);
}

// -------------------------------------------------------------- error --

TEST(Error, RequireThrowsPreconditionError)
{
    EXPECT_THROW(require(false, "boom"), precondition_error);
    EXPECT_NO_THROW(require(true, "fine"));
}

TEST(Error, RequireFeasibleThrowsInfeasibleError)
{
    EXPECT_THROW(require_feasible(false, "no way"), infeasible_error);
    EXPECT_NO_THROW(require_feasible(true, "ok"));
}

TEST(Error, ExceptionsDeriveFromMwlError)
{
    try {
        require(false, "message text");
        FAIL() << "should have thrown";
    } catch (const error& e) {
        EXPECT_STREQ(e.what(), "message text");
    }
}

TEST(Error, InfeasibleIsDistinctFromPrecondition)
{
    EXPECT_THROW(
        {
            try {
                require_feasible(false, "x");
            } catch (const precondition_error&) {
                FAIL() << "wrong type";
            }
        },
        infeasible_error);
}

// ---------------------------------------------------------------- rng --

TEST(Rng, DeterministicForEqualSeeds)
{
    rng a(123);
    rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    rng a(1);
    rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        same += (a() == b()) ? 1 : 0;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformRespectsBounds)
{
    rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.uniform(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, UniformCoversFullRange)
{
    rng r(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        seen.insert(r.uniform(0, 3));
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformDegenerateRangeIsConstant)
{
    rng r(5);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(r.uniform(9, 9), 9u);
    }
}

TEST(Rng, UniformIntMatchesRange)
{
    rng r(3);
    for (int i = 0; i < 1000; ++i) {
        const int v = r.uniform_int(1, 6);
        EXPECT_GE(v, 1);
        EXPECT_LE(v, 6);
    }
}

TEST(Rng, UniformRealInHalfOpenUnitInterval)
{
    rng r(13);
    for (int i = 0; i < 10000; ++i) {
        const double v = r.uniform_real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, UniformRealMeanIsPlausible)
{
    rng r(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        sum += r.uniform_real();
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceExtremesAreDeterministic)
{
    rng r(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ForkProducesIndependentStream)
{
    rng parent(21);
    rng child = parent.fork(1);
    rng parent2(21);
    rng child2 = parent2.fork(1);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(child(), child2());
    }
}

TEST(Rng, ForkSaltMatters)
{
    rng parent(21);
    rng a = parent.fork(1);
    rng parent2(21);
    rng b = parent2.fork(2);
    int same = 0;
    for (int i = 0; i < 50; ++i) {
        same += (a() == b()) ? 1 : 0;
    }
    EXPECT_LT(same, 3);
}

// -------------------------------------------------------------- stats --

TEST(Stats, MeanOfKnownSample)
{
    const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(v), 2.5);
}

TEST(Stats, MeanOfEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, StddevOfKnownSample)
{
    const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_NEAR(stddev(v), 2.138, 1e-3);
}

TEST(Stats, StddevOfSingletonIsZero)
{
    const std::vector<double> v{42.0};
    EXPECT_DOUBLE_EQ(stddev(v), 0.0);
}

TEST(Stats, GeomeanOfKnownSample)
{
    const std::vector<double> v{1.0, 100.0};
    EXPECT_NEAR(geomean(v), 10.0, 1e-9);
}

TEST(Stats, PercentileEndpoints)
{
    const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
}

TEST(Stats, PercentileInterpolates)
{
    const std::vector<double> v{0.0, 10.0};
    EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
}

TEST(Stats, MinMaxOfSample)
{
    const std::vector<double> v{3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(min_of(v), 1.0);
    EXPECT_DOUBLE_EQ(max_of(v), 3.0);
}

// ----------------------------------------------------- latency window --

TEST(LatencyWindow, EmptyWindowSummarisesToZeros)
{
    latency_window w(8);
    const latency_summary s = w.summarize();
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
    EXPECT_DOUBLE_EQ(s.p50, 0.0);
    EXPECT_DOUBLE_EQ(s.p99, 0.0);
    EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(LatencyWindow, SummarisesAKnownSample)
{
    latency_window w(8);
    for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
        w.record(v);
    }
    const latency_summary s = w.summarize();
    EXPECT_EQ(s.count, 5u);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_DOUBLE_EQ(s.p50, 3.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(LatencyWindow, RingRetainsOnlyTheNewestSamples)
{
    latency_window w(4);
    for (int i = 1; i <= 10; ++i) {
        w.record(static_cast<double>(i));
    }
    const latency_summary s = w.summarize();
    // count is lifetime; the percentiles cover the retained {7,8,9,10}.
    EXPECT_EQ(s.count, 10u);
    EXPECT_DOUBLE_EQ(s.mean, 8.5);
    EXPECT_DOUBLE_EQ(s.p50, 8.5);
    EXPECT_DOUBLE_EQ(s.max, 10.0);
}

TEST(LatencyWindow, ConcurrentRecordersDoNotLoseCounts)
{
    latency_window w(64);
    constexpr int threads = 4;
    constexpr int per_thread = 1000;
    {
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([&w] {
                for (int i = 0; i < per_thread; ++i) {
                    w.record(1.0);
                }
            });
        }
        for (std::thread& t : pool) {
            t.join();
        }
    }
    const latency_summary s = w.summarize();
    EXPECT_EQ(s.count, static_cast<std::uint64_t>(threads) * per_thread);
    EXPECT_DOUBLE_EQ(s.p99, 1.0);
}

// -------------------------------------------------------- sharded lru --

TEST(ShardedLru, RoundTripsAndMisses)
{
    sharded_lru<int, std::string> cache(64, 4);
    EXPECT_FALSE(cache.get(1).has_value());
    cache.put(1, "one");
    cache.put(2, "two");
    ASSERT_TRUE(cache.get(1).has_value());
    EXPECT_EQ(*cache.get(1), "one");
    EXPECT_EQ(*cache.get(2), "two");
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 0u);
    cache.put(1, "uno"); // overwrite, not a new entry
    EXPECT_EQ(*cache.get(1), "uno");
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedLru, ShardCountRoundsUpToAPowerOfTwo)
{
    EXPECT_EQ((sharded_lru<int, int>(64, 1).shard_count()), 1u);
    EXPECT_EQ((sharded_lru<int, int>(64, 5).shard_count()), 8u);
    EXPECT_EQ((sharded_lru<int, int>(64, 16).shard_count()), 16u);
    // A tiny capacity caps the stripe count; every shard holds >= 1
    // entry and the total bound never shrinks below what was asked for.
    EXPECT_EQ((sharded_lru<int, int>(3, 16).shard_count()), 4u);
    EXPECT_GE((sharded_lru<int, int>(3, 16).capacity()), 3u);
    EXPECT_EQ((sharded_lru<int, int>(1, 16).shard_count()), 1u);
}

TEST(ShardedLru, SingleShardEvictsLeastRecentlyUsedAndCounts)
{
    sharded_lru<int, int> cache(2, 1);
    cache.put(1, 10);
    cache.put(2, 20);
    ASSERT_TRUE(cache.get(1).has_value()); // 1 is now MRU
    cache.put(3, 30);                      // evicts 2
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_TRUE(cache.get(1).has_value());
    EXPECT_FALSE(cache.get(2).has_value());
    EXPECT_TRUE(cache.get(3).has_value());
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedLru, BoundHoldsAcrossShards)
{
    sharded_lru<int, int> cache(16, 4);
    for (int i = 0; i < 1000; ++i) {
        cache.put(i, i);
    }
    EXPECT_LE(cache.size(), cache.capacity());
    EXPECT_GE(cache.evictions(), 1000 - cache.capacity());
}

TEST(ShardedLru, ConcurrentMixedTrafficStaysBoundedAndConsistent)
{
    // TSan coverage for the striping itself: hammer a small cache from
    // several threads with overlapping key ranges.
    sharded_lru<int, int> cache(32, 8);
    constexpr int threads = 4;
    constexpr int ops = 5000;
    {
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([&cache, t] {
                for (int i = 0; i < ops; ++i) {
                    const int key = (i + t * 13) % 64;
                    if (const auto hit = cache.get(key)) {
                        // A present value is always the one put for its key.
                        EXPECT_EQ(*hit, key * 3);
                    } else {
                        cache.put(key, key * 3);
                    }
                }
            });
        }
        for (std::thread& t : pool) {
            t.join();
        }
    }
    EXPECT_LE(cache.size(), cache.capacity());
}

// -------------------------------------------------------------- timer --

TEST(Timer, MeasuresNonNegativeTime)
{
    stopwatch w;
    EXPECT_GE(w.seconds(), 0.0);
    EXPECT_GE(w.milliseconds(), 0.0);
}

TEST(Timer, ResetRestartsTheClock)
{
    stopwatch w;
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) {
        sink = sink + 1.0;
    }
    w.reset();
    EXPECT_LT(w.seconds(), 1.0);
}

// --------------------------------------------------------------- json --

TEST(Json, EveryAsciiByteEscapesAndReadsBackUnchanged)
{
    for (int b = 0x01; b <= 0x7f; ++b) {
        std::string text = "<";
        text += static_cast<char>(b);
        text += '>';
        const std::string quoted = json_quote(text);
        for (const char c : quoted) {
            EXPECT_GE(static_cast<unsigned char>(c), 0x20)
                << "raw control byte in " << quoted;
        }
        const json_value v = parse_json(quoted);
        ASSERT_EQ(v.what, json_value::kind::string) << quoted;
        EXPECT_EQ(v.string, text) << "byte " << b;
    }
    EXPECT_EQ(json_quote("a\"b\\c\nd\te\x01"),
              R"("a\"b\\c\nd\te\u0001")");
}

TEST(Json, SeededRandomDoublesRoundTripBitExactly)
{
    const std::uint64_t seed = testing::env_seed("MWL_JSON_SEED", 2001);
    MWL_TRACE_SEED("MWL_JSON_SEED", seed);
    rng random(seed);
    int checked = 0;
    while (checked < 20000) {
        // Raw bit patterns cover subnormals, huge and tiny exponents and
        // both signs; non-finite values are not JSON and are skipped.
        const double value = std::bit_cast<double>(random());
        if (!std::isfinite(value)) {
            continue;
        }
        const std::string text = format_double(value);
        const json_value v = parse_json("[" + text + "]");
        ASSERT_EQ(v.array.size(), 1u);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(v.array[0].number),
                  std::bit_cast<std::uint64_t>(value))
            << text;
        ++checked;
    }
    EXPECT_EQ(format_double(0.1), "0.10000000000000001");
    EXPECT_EQ(format_double(24.5), "24.5");
}

TEST(Json, ReaderHandlesEveryValueKindAndRejectsJunk)
{
    const json_value v = parse_json(
        R"( {"a": [1, -2.5e3, true, false, null], "b": {"c": "\u0041\/"}} )");
    ASSERT_EQ(v.array_at("a").size(), 5u);
    EXPECT_EQ(v.array_at("a")[1].number, -2500.0);
    EXPECT_TRUE(v.array_at("a")[2].boolean);
    EXPECT_EQ(v.array_at("a")[4].what, json_value::kind::null);
    EXPECT_EQ(v.at("b").string_at("c"), "A/");
    EXPECT_THROW(static_cast<void>(v.number_at("b")), json_error);
    EXPECT_THROW(static_cast<void>(v.at("missing")), json_error);
    for (const char* bad : {"", "{", "[1,]", "{\"a\" 1}", "\"\\q\"", "1 2",
                            "[1e999]", "{1: 2}", "\"\\u00e9\"",
                            "\"\\u12\""}) {
        EXPECT_THROW(static_cast<void>(parse_json(bad)), json_error) << bad;
    }
}

TEST(Json, EveryGoldenReserialisesToItsCommittedBytes)
{
    std::size_t goldens = 0;
    for (const auto& file :
         std::filesystem::directory_iterator(MWL_GOLDEN_DIR)) {
        if (file.path().extension() != ".json") {
            continue;
        }
        std::ifstream in(file.path());
        std::ostringstream text;
        text << in.rdbuf();
        EXPECT_EQ(to_json(parse_quality_report(text.str())), text.str())
            << file.path();
        ++goldens;
    }
    EXPECT_EQ(goldens, 13u);
}

} // namespace
} // namespace mwl
