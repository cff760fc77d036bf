#include "util/thread_pool.hpp"

#include <cstdlib>
#include <string>
#include <utility>

#include "util/cli.hpp"
#include "util/error.hpp"

namespace dvbs2::util {

ThreadPool::ThreadPool(unsigned threads) {
    DVBS2_REQUIRE(threads <= kMaxThreads, "ThreadPool: threads must be at most " +
                                              std::to_string(kMaxThreads) + ", got " +
                                              std::to_string(threads));
    if (threads == 0) threads = 1;
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> job) {
    std::packaged_task<void()> task(std::move(job));
    std::future<void> fut = task.get_future();
    {
        std::lock_guard<std::mutex> lock(mu_);
        // Once the destructor has begun (stopping_), workers exit as soon as
        // the queue they observe is empty — a job enqueued now may never be
        // drained, and its future would never become ready. Refuse loudly
        // instead of accepting work into the void (regression-tested in
        // tests/test_thread_pool.cpp).
        if (stopping_)
            throw std::runtime_error(
                "ThreadPool::submit on a stopping pool (destructor has begun): the job would "
                "be enqueued after the workers' shutdown drain and never run");
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
    return fut;
}

void ThreadPool::run_workers(unsigned n, const std::function<void(unsigned)>& job) {
    std::vector<std::future<void>> futs;
    futs.reserve(n);
    for (unsigned i = 0; i < n; ++i) futs.push_back(submit([&job, i] { job(i); }));
    // Wait for everything before rethrowing so no instance outlives the call.
    std::exception_ptr first;
    for (auto& f : futs) {
        try {
            f.get();
        } catch (...) {
            if (!first) first = std::current_exception();
        }
    }
    if (first) std::rethrow_exception(first);
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            // Drain the queue even when stopping: jobs accepted before the
            // destructor ran are completed, not abandoned.
            if (queue_.empty()) return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();  // exceptions are captured by the packaged_task
    }
}

unsigned resolve_thread_count(unsigned requested) {
    if (requested > 0) {
        DVBS2_REQUIRE(requested <= kMaxThreads, "thread count must be in [1, " +
                                                    std::to_string(kMaxThreads) + "], got " +
                                                    std::to_string(requested));
        return requested;
    }
    if (const char* env = std::getenv("DVBS2_THREADS")) {
        // Only the truly empty value counts as unset; anything else must be
        // a valid positive integer. Malformed input used to fall back
        // silently to hardware_concurrency, hiding typos like
        // DVBS2_THREADS=8x. Whitespace-only values ("  ") are malformed too,
        // not unset — stoll would happen to reject them as "no conversion",
        // but the contract is pinned here explicitly (with its own
        // diagnostic) rather than leaning on parse_int internals
        // (tests/test_thread_pool.cpp).
        const std::string text(env);
        if (!text.empty()) {
            DVBS2_REQUIRE(text.find_first_not_of(" \t\n\r\f\v") != std::string::npos,
                          "DVBS2_THREADS is whitespace-only (\"" + text +
                              "\"); unset it or export DVBS2_THREADS= (empty) to fall back to "
                              "hardware concurrency");
            const long long v = parse_int(text, "DVBS2_THREADS");
            DVBS2_REQUIRE(v > 0 && v <= kMaxThreads,
                          "DVBS2_THREADS must be in [1, " + std::to_string(kMaxThreads) +
                              "], got \"" + text + "\"");
            return static_cast<unsigned>(v);
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

}  // namespace dvbs2::util
