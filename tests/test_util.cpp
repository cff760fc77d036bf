// Unit tests for the util library: PRNG determinism and distribution sanity,
// bit-vector algebra, statistics, CLI parsing, math kernels.
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "util/bitvec.hpp"
#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace du = dvbs2::util;

TEST(SplitMix64, IsDeterministic) {
    du::SplitMix64 a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
    du::SplitMix64 a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro, IsDeterministic) {
    du::Xoshiro256pp a(7), b(7);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, UniformIsInUnitInterval) {
    du::Xoshiro256pp rng(11);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Xoshiro, BelowRespectsBound) {
    du::Xoshiro256pp rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.below(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);  // all residues reachable
}

TEST(Xoshiro, BelowZeroAndOne) {
    du::Xoshiro256pp rng(5);
    EXPECT_EQ(rng.below(0), 0u);
    EXPECT_EQ(rng.below(1), 0u);
}

TEST(Xoshiro, GaussianMomentsAreSane) {
    du::Xoshiro256pp rng(3);
    du::RunningStats s;
    for (int i = 0; i < 200000; ++i) s.add(rng.gaussian());
    EXPECT_NEAR(s.mean(), 0.0, 0.02);
    EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(BitVec, SetGetFlip) {
    du::BitVec v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_TRUE(v.none());
    v.set(0, true);
    v.set(129, true);
    v.flip(64);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(64));
    EXPECT_TRUE(v.get(129));
    EXPECT_EQ(v.count(), 3u);
    v.flip(64);
    EXPECT_FALSE(v.get(64));
    EXPECT_EQ(v.count(), 2u);
}

TEST(BitVec, XorAndHamming) {
    du::BitVec a(70), b(70);
    a.set(3, true);
    a.set(69, true);
    b.set(3, true);
    b.set(10, true);
    EXPECT_EQ(du::BitVec::hamming_distance(a, b), 2u);
    const du::BitVec c = a ^ b;
    EXPECT_EQ(c.count(), 2u);
    EXPECT_TRUE(c.get(10));
    EXPECT_TRUE(c.get(69));
}

TEST(BitVec, XorSizeMismatchThrows) {
    du::BitVec a(10), b(11);
    EXPECT_THROW(a ^= b, std::runtime_error);
}

TEST(BitVec, ClearResetsAllBits) {
    du::BitVec a(100);
    for (std::size_t i = 0; i < 100; i += 3) a.set(i, true);
    a.clear();
    EXPECT_TRUE(a.none());
    EXPECT_EQ(a.size(), 100u);
}

TEST(BitVec, WordAssignMatchesBitwiseSetAndKeepsTailZero) {
    // assign and assign_prefix write whole words; bits past size() must
    // stay zero, or operator== (which compares words) would tell apart two
    // vectors holding the same bits.
    for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                                std::size_t{65}, std::size_t{130}}) {
        du::BitVec want(n);
        for (std::size_t i = 0; i < n; ++i) want.set(i, i % 3 == 0 || i % 7 == 2);
        du::BitVec got(n);
        got.set(n - 1, true);  // stale contents are overwritten
        got.assign([](std::size_t i) { return i % 3 == 0 || i % 7 == 2; });
        EXPECT_EQ(got, want) << n;

        du::BitVec wide(n + 70);
        for (std::size_t i = 0; i < n + 70; ++i) wide.set(i, true);
        du::BitVec prefix(n);
        prefix.assign_prefix(wide);
        du::BitVec ones(n);
        for (std::size_t i = 0; i < n; ++i) ones.set(i, true);
        EXPECT_EQ(prefix, ones) << n;
        EXPECT_EQ(prefix.count(), n) << n;
    }
    du::BitVec shorter(10);
    du::BitVec longer(11);
    EXPECT_THROW(longer.assign_prefix(shorter), std::runtime_error);
}

TEST(RunningStats, MeanVarianceMinMax) {
    du::RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(WilsonInterval, CoversPointEstimate) {
    const auto ci = du::wilson_interval(10, 100);
    EXPECT_LT(ci.lo, 0.1);
    EXPECT_GT(ci.hi, 0.1);
    EXPECT_GT(ci.lo, 0.0);
    EXPECT_LT(ci.hi, 1.0);
}

TEST(WilsonInterval, ZeroTrials) {
    const auto ci = du::wilson_interval(0, 0);
    EXPECT_EQ(ci.lo, 0.0);
    EXPECT_EQ(ci.hi, 1.0);
}

TEST(WilsonInterval, ZeroSuccessesHasPositiveUpperBound) {
    const auto ci = du::wilson_interval(0, 1000);
    EXPECT_EQ(ci.lo, 0.0);
    EXPECT_GT(ci.hi, 0.0);
    EXPECT_LT(ci.hi, 0.01);
}

TEST(Cli, ParsesValuesAndFlags) {
    const char* argv[] = {"prog", "--rate=1/2", "--iters=30", "--verbose", "positional"};
    du::CliArgs args(5, argv, {"rate", "iters", "verbose"});
    EXPECT_EQ(args.get("rate", ""), "1/2");
    EXPECT_EQ(args.get_int("iters", 0), 30);
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_FALSE(args.has("quiet"));
    EXPECT_EQ(args.get_double("missing", 2.5), 2.5);
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "positional");
}

TEST(Cli, RejectsUnknownOption) {
    const char* argv[] = {"prog", "--bogus=1"};
    EXPECT_THROW(du::CliArgs(2, argv, {"rate"}), std::runtime_error);
}

TEST(Cli, MalformedNumericValueThrowsNamingTheFlag) {
    // Regression: get_int used bare std::stoll, so "--threads=8x" silently
    // parsed as 8 and "--threads=x" escaped as an uncaught
    // std::invalid_argument (terminate), with no hint of which flag.
    const char* argv[] = {"prog", "--threads=8x", "--step=1.5dB", "--frames="};
    du::CliArgs args(4, argv, {"threads", "step", "frames"});
    try {
        (void)args.get_int("threads", 0);
        FAIL() << "expected std::runtime_error for --threads=8x";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos) << e.what();
    }
    try {
        (void)args.get_double("step", 0.0);
        FAIL() << "expected std::runtime_error for --step=1.5dB";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("--step"), std::string::npos) << e.what();
    }
    EXPECT_THROW((void)args.get_int("frames", 0), std::runtime_error);  // empty value
}

TEST(Cli, BoundedIntNamesTheFlagAndItsRange) {
    const char* argv[] = {"prog", "--threads=-1", "--streams=0", "--queue=8"};
    du::CliArgs args(4, argv, {"threads", "streams", "queue"});
    const auto message = [&](const std::string& name, long long lo, long long hi) {
        try {
            (void)args.bounded_int(name, 1, lo, hi);
        } catch (const std::runtime_error& e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    EXPECT_EQ(message("threads", 0, 4096), "--threads must be in [0, 4096], got -1");
    EXPECT_EQ(message("streams", 1, LLONG_MAX), "--streams must be at least 1, got 0");
    EXPECT_EQ(args.bounded_int("queue", 1, 1, LLONG_MAX), 8);
    EXPECT_EQ(args.bounded_int("absent", 7, 1, 9), 7);
}

TEST(Cli, StrictParsersAcceptWellFormedInput) {
    EXPECT_EQ(du::parse_int("-42", "t"), -42);
    EXPECT_DOUBLE_EQ(du::parse_double("1.5e-3", "t"), 1.5e-3);
    EXPECT_THROW(du::parse_int("99999999999999999999", "t"), std::runtime_error);  // out of range
    EXPECT_THROW(du::parse_double("", "t"), std::runtime_error);
    EXPECT_THROW(du::parse_int("0x10", "t"), std::runtime_error);  // base-10 only
}

TEST(MathKernels, BoxplusExactMatchesTanhDefinition) {
    for (double a : {-6.0, -2.0, -0.5, 0.3, 1.0, 4.0}) {
        for (double b : {-5.0, -1.0, 0.1, 2.0, 7.0}) {
            const double ref = 2.0 * std::atanh(std::tanh(a / 2.0) * std::tanh(b / 2.0));
            EXPECT_NEAR(du::boxplus_exact(a, b), ref, 1e-9) << a << " " << b;
        }
    }
}

TEST(MathKernels, BoxplusWithZeroIsZero) {
    EXPECT_DOUBLE_EQ(du::boxplus_exact(0.0, 5.0), 0.0);
    EXPECT_DOUBLE_EQ(du::boxplus_minsum(0.0, -3.0), 0.0);
}

TEST(MathKernels, MinSumOverestimatesNever) {
    // |minsum| >= |exact| always (the correction is non-positive in
    // magnitude terms).
    for (double a : {-4.0, -1.0, 0.5, 2.0}) {
        for (double b : {-3.0, 0.7, 5.0}) {
            EXPECT_GE(std::fabs(du::boxplus_minsum(a, b)) + 1e-12,
                      std::fabs(du::boxplus_exact(a, b)));
        }
    }
}

TEST(MathKernels, JacobianLog) {
    EXPECT_NEAR(du::jacobian_log(1.0, 2.0), std::log(std::exp(1.0) + std::exp(2.0)), 1e-12);
}

TEST(MathKernels, QFunction) {
    EXPECT_NEAR(du::q_function(0.0), 0.5, 1e-12);
    EXPECT_NEAR(du::q_function(3.0), 0.00134989803163, 1e-9);
}

TEST(MathKernels, DbConversionRoundTrip) {
    for (double db : {-3.0, 0.0, 2.5, 10.0}) {
        EXPECT_NEAR(du::linear_to_db(du::db_to_linear(db)), db, 1e-12);
    }
}

TEST(TextTable, RendersAlignedRows) {
    du::TextTable t;
    t.set_header({"Rate", "q"});
    t.add_row({"1/2", "90"});
    t.add_row({"9/10", "18"});
    std::ostringstream os;
    t.print(os, "Title");
    const std::string s = os.str();
    EXPECT_NE(s.find("Title"), std::string::npos);
    EXPECT_NE(s.find("1/2"), std::string::npos);
    EXPECT_NE(s.find("9/10"), std::string::npos);
}

TEST(TextTable, RowArityMismatchThrows) {
    du::TextTable t;
    t.set_header({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), std::runtime_error);
}

#include <cstdio>
#include <fstream>

#include "util/csv.hpp"

TEST(Csv, WritesRowsWithEscaping) {
    const std::string path = "/tmp/dvbs2_csv_test.csv";
    {
        du::CsvWriter csv(path);
        csv.write_row({"a", "b,with comma", "c\"quoted\""});
        csv.write_row({"1", "2", "3"});
        EXPECT_EQ(csv.rows_written(), 2u);
    }
    std::ifstream in(path);
    std::string line1, line2;
    std::getline(in, line1);
    std::getline(in, line2);
    EXPECT_EQ(line1, "a,\"b,with comma\",\"c\"\"quoted\"\"\"");
    EXPECT_EQ(line2, "1,2,3");
    std::remove(path.c_str());
}

TEST(Csv, ThrowsOnBadPath) {
    EXPECT_THROW(du::CsvWriter("/nonexistent_dir_xyz/file.csv"), std::runtime_error);
}
