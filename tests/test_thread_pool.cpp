// Stress and contract tests for the worker pool behind the parallel
// Monte-Carlo engine: full execution of many submissions, exception
// propagation through futures and run_workers, reuse across waves (a BER
// sweep reuses one pool for every point), and a contended-counter hammer
// meant to run under ThreadSanitizer (ctest -L tsan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/prng.hpp"
#include "util/thread_pool.hpp"

using dvbs2::util::ThreadPool;

TEST(ThreadPool, RunsEverySubmittedJob) {
    ThreadPool pool(4);
    std::atomic<int> count{0};
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 1000; ++i)
        futs.push_back(pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); }));
    for (auto& f : futs) f.get();
    EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, DestructorDrainsPendingJobs) {
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }  // jobs accepted before destruction must complete, not vanish
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, SubmitAfterDestructorBeganThrows) {
    // Regression: submit on a pool whose destructor had already set
    // stopping_ used to enqueue into a queue no worker would ever drain —
    // the job silently never ran and its future never became ready. It must
    // throw instead, naming the pool state.
    auto pool = std::make_unique<ThreadPool>(1);
    // The unique_ptr nulls itself before ~ThreadPool runs, so keep the raw
    // pointer: the pool object stays alive until its (blocked) destructor
    // body returns, which is exactly the window this regression lives in.
    ThreadPool* raw = pool.get();
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    // Occupy the single worker so the destructor blocks in join() with
    // stopping_ == true while we keep submitting from this thread.
    auto busy = raw->submit([gate] { gate.wait(); });
    std::thread destroyer([&pool] { pool.reset(); });
    // Jobs accepted before stopping_ flips are drained by the destructor;
    // the first submit that observes the stopping pool must throw. This
    // terminates because the destructor sets stopping_ as soon as it takes
    // the queue mutex once.
    bool threw = false;
    std::string message;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!threw && std::chrono::steady_clock::now() < deadline) {
        try {
            (void)raw->submit([] {});
        } catch (const std::runtime_error& e) {
            threw = true;
            message = e.what();
        }
        std::this_thread::yield();  // let the destroyer take the queue mutex
    }
    release.set_value();  // let the worker finish so the destructor completes
    destroyer.join();
    ASSERT_TRUE(threw) << "submit never observed the stopping pool";
    EXPECT_NE(message.find("stopping"), std::string::npos) << message;
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
    ThreadPool pool(2);
    auto fut = pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(fut.get(), std::runtime_error);
    // The pool survives a throwing job.
    auto ok = pool.submit([] {});
    EXPECT_NO_THROW(ok.get());
}

TEST(ThreadPool, RunWorkersRethrowsAfterAllFinish) {
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.run_workers(8,
                                  [&ran](unsigned w) {
                                      ran.fetch_add(1, std::memory_order_relaxed);
                                      if (w == 3) throw std::runtime_error("worker 3 failed");
                                  }),
                 std::runtime_error);
    // run_workers waits for every instance before rethrowing.
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ReusableAcrossWaves) {
    ThreadPool pool(3);
    for (int wave = 0; wave < 10; ++wave) {
        std::atomic<int> sum{0};
        pool.run_workers(6, [&sum](unsigned w) {
            sum.fetch_add(static_cast<int>(w) + 1, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 21);  // 1+2+...+6 each wave
    }
}

TEST(ThreadPool, ContendedSharedStateStaysConsistent) {
    // TSan fodder: workers hammer an atomic cursor and a mutex-guarded
    // vector, the same sharing pattern as the BER engine's reduction.
    ThreadPool pool(8);
    constexpr int kSlots = 512;
    std::atomic<int> cursor{0};
    std::vector<int> values(kSlots, -1);
    std::mutex mu;
    pool.run_workers(8, [&](unsigned) {
        for (;;) {
            const int i = cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= kSlots) return;
            std::lock_guard<std::mutex> lock(mu);
            values[static_cast<std::size_t>(i)] = i;
        }
    });
    for (int i = 0; i < kSlots; ++i) EXPECT_EQ(values[static_cast<std::size_t>(i)], i);
}

TEST(ResolveThreadCount, ExplicitRequestWins) {
    EXPECT_EQ(dvbs2::util::resolve_thread_count(5), 5u);
}

// An explicit count is held to kMaxThreads like DVBS2_THREADS: a negative
// --threads cast to unsigned must not start 4294967295 threads.
TEST(ResolveThreadCount, ExplicitRequestPastMaxThreadsThrows) {
    using dvbs2::util::kMaxThreads;
    EXPECT_EQ(dvbs2::util::resolve_thread_count(kMaxThreads), kMaxThreads);
    for (const unsigned bad : {kMaxThreads + 1, 4294967295u}) {
        try {
            (void)dvbs2::util::resolve_thread_count(bad);
            FAIL() << "expected std::runtime_error for " << bad;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(std::to_string(bad)), std::string::npos)
                << e.what();
        }
    }
}

TEST(ThreadPool, MoreThanMaxThreadsThrowsBeforeStartingAny) {
    using dvbs2::util::kMaxThreads;
    for (const unsigned bad : {kMaxThreads + 1, 4294967295u}) {
        try {
            ThreadPool pool(bad);
            FAIL() << "expected std::runtime_error for " << bad << ", got " << pool.size();
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(std::to_string(bad)), std::string::npos)
                << e.what();
        }
    }
}

TEST(ResolveThreadCount, EnvOverrideAppliesWhenAuto) {
    ASSERT_EQ(setenv("DVBS2_THREADS", "3", 1), 0);
    EXPECT_EQ(dvbs2::util::resolve_thread_count(0), 3u);
    EXPECT_EQ(dvbs2::util::resolve_thread_count(2), 2u);  // explicit still wins
    ASSERT_EQ(setenv("DVBS2_THREADS", "", 1), 0);  // empty counts as unset
    EXPECT_GE(dvbs2::util::resolve_thread_count(0), 1u);
    unsetenv("DVBS2_THREADS");
    EXPECT_GE(dvbs2::util::resolve_thread_count(0), 1u);
}

TEST(ResolveThreadCount, WhitespaceOnlyEnvIsMalformedNotUnset) {
    // Pin the contract between "unset" and "invalid": only the truly empty
    // string falls back to hardware concurrency (the EnvOverride test
    // above); any whitespace-only value is malformed like other junk and
    // must throw, naming the variable. Previously this case rode on stoll's
    // "no conversion" behavior and was never pinned.
    for (const char* ws : {" ", "   ", "\t", " \t\n ", "\r\v"}) {
        ASSERT_EQ(setenv("DVBS2_THREADS", ws, 1), 0);
        try {
            (void)dvbs2::util::resolve_thread_count(0);
            FAIL() << "expected std::runtime_error for whitespace-only DVBS2_THREADS";
        } catch (const std::runtime_error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("DVBS2_THREADS"), std::string::npos) << what;
            EXPECT_NE(what.find("whitespace"), std::string::npos) << what;
        }
        // Explicit requests still bypass the environment.
        EXPECT_EQ(dvbs2::util::resolve_thread_count(3), 3u);
    }
    unsetenv("DVBS2_THREADS");
}

TEST(ResolveThreadCount, MalformedEnvThrowsInsteadOfSilentFallback) {
    // Regression: DVBS2_THREADS=8x used to fall back silently to
    // hardware_concurrency — a typo changed the worker count without any
    // diagnostic. Now every malformed value is a hard error naming the
    // variable.
    for (const char* bad : {"8x", "junk", "-2", "0", "5000", "1e3"}) {
        ASSERT_EQ(setenv("DVBS2_THREADS", bad, 1), 0);
        try {
            (void)dvbs2::util::resolve_thread_count(0);
            FAIL() << "expected std::runtime_error for DVBS2_THREADS=" << bad;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("DVBS2_THREADS"), std::string::npos) << e.what();
        }
        // An explicit request bypasses the environment entirely.
        EXPECT_EQ(dvbs2::util::resolve_thread_count(7), 7u);
    }
    unsetenv("DVBS2_THREADS");
}

// ------------------------------------------------- stream derivation (prng)

TEST(DeriveStream, DistinctCoordinatesGiveDistinctStreams) {
    // The per-frame scheme keys on (point, frame, role-lane): a collision
    // would correlate supposedly independent Monte-Carlo samples. Check a
    // dense grid pairwise via a set.
    std::vector<std::uint64_t> seen;
    for (std::uint64_t point = 0; point < 16; ++point)
        for (std::uint64_t frame = 0; frame < 128; ++frame)
            for (std::uint64_t lane = 0; lane < 3; ++lane)
                seen.push_back(dvbs2::util::derive_stream(0xabcdef12345ULL + point, frame, lane));
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(DeriveStream, LanesAreNotInterchangeable) {
    using dvbs2::util::derive_stream;
    EXPECT_NE(derive_stream(1, 2, 3), derive_stream(1, 3, 2));
    EXPECT_NE(derive_stream(1, 2), derive_stream(2, 1));
    EXPECT_NE(derive_stream(1, 0, 5), derive_stream(1, 5, 0));
    EXPECT_NE(derive_stream(7, 1), derive_stream(7, 1, 1));
}

TEST(DeriveStream, DependsOnParentSeed) {
    using dvbs2::util::derive_stream;
    EXPECT_NE(derive_stream(1, 42), derive_stream(2, 42));
}
