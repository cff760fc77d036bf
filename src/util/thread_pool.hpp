// Small fixed-size worker pool.
//
// Built for the frame-parallel Monte-Carlo engine (comm/parallel) but
// generic: jobs are plain callables, exceptions propagate through the
// returned futures, and the pool is reusable across submission waves (a
// BER sweep reuses one pool for every Eb/N0 point). The pool makes no
// fairness or ordering promises beyond FIFO dispatch; deterministic callers
// must derive their results from logical indices (see util/prng
// derive_stream), never from scheduling order.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace dvbs2::util {

class ThreadPool {
public:
    /// Spawns `threads` workers (at least 1). Throws std::runtime_error
    /// naming the count, before any thread starts, when `threads` exceeds
    /// kMaxThreads.
    explicit ThreadPool(unsigned threads);

    /// Blocks until all queued and running jobs finish, then joins.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

    /// Enqueues `job`; the future delivers the job's exception, if any.
    /// Throws std::runtime_error if the pool's destructor has already begun
    /// (the job could never run — workers only drain jobs accepted before
    /// shutdown started).
    std::future<void> submit(std::function<void()> job);

    /// Runs `job(worker_index)` for worker_index in [0, n) and blocks until
    /// every instance returns. The first exception (lowest index) is
    /// rethrown after all instances have finished. `n` may exceed size();
    /// excess instances queue behind the others.
    void run_workers(unsigned n, const std::function<void(unsigned)>& job);

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::deque<std::packaged_task<void()>> queue_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

/// Upper bound on every thread count the library starts: ThreadPool,
/// resolve_thread_count (an explicit request or DVBS2_THREADS),
/// service::ServiceConfig::workers and service::TrafficOptions::producers.
/// A count past it is a malformed setting (a negative flag value cast to
/// unsigned reads as 4294967295), rejected before any thread starts.
inline constexpr unsigned kMaxThreads = 4096;

/// Simulation worker-thread count: `requested` if nonzero, else the
/// DVBS2_THREADS environment variable if set (non-empty), else
/// std::thread::hardware_concurrency() (at least 1). Throws
/// std::runtime_error when `requested` exceeds kMaxThreads, or when
/// DVBS2_THREADS is set but is not a valid integer in [1, kMaxThreads] — a
/// typo must not silently change the worker count. Only the truly empty
/// string counts as unset; a whitespace-only value is malformed like any
/// other non-numeric text and throws.
unsigned resolve_thread_count(unsigned requested);

}  // namespace dvbs2::util
