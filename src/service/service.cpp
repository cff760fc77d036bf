// Streaming decode service implementation. See service.hpp for the
// pipeline overview; the short version of the concurrency design:
//
//   mu_          guards the frame queue (per-class pending FIFOs + free
//                lists), admission counters, and the class/stream tables.
//                Held briefly: never across a frame copy or a decode.
//   st->mu       per-stream delivery lock: serializes in-order delivery and
//                the reorder buffer. Callbacks run under it.
//   metrics_mu_  batch/latency aggregates and per-class decode counters.
//   w.engines_mu per-worker engine-table lock, so the metrics poller can
//                walk a worker's engines while the worker decodes (engine
//                telemetry itself is read with convergence_snapshot()).
//
// Lock order: st->mu and w.engines_mu are leaves except that delivery
// (under st->mu) may take metrics_mu_, and a callback may call submit()
// (st->mu → mu_). mu_ is never held while taking st->mu, so the order
// st->mu → {metrics_mu_, mu_} is acyclic.
//
// The scheduler is work-claiming rather than a dedicated thread: idle
// workers pick the next batch themselves under mu_ (full same-class blocks
// first, then the oldest class once its linger deadline passes), which
// keeps the service work-conserving with no hand-off hop on the hot path.
#include "service/service.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace dvbs2::service {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// The service whose worker loop runs on this thread (null elsewhere). Set
/// once at the top of worker_main and read only by the thread itself, so
/// stop() and drain() can refuse a call from their own workers without
/// touching std::thread objects that another thread may be joining.
thread_local const void* tl_worker_of = nullptr;

}  // namespace

namespace detail {

struct Frame {
    std::vector<double> llr;  // capacity = class N, recycled via the free list
    StreamId stream = 0;
    std::uint64_t seq = 0;
    Clock::time_point enqueued_at{};
};

struct ClassState {
    const code::Dvbs2Code* code = nullptr;
    core::EngineSpec spec;
    std::size_t n = 0;
    std::size_t preferred = 1;
    // Both guarded by Impl::mu_.
    std::deque<std::unique_ptr<Frame>> pending;
    std::vector<std::unique_ptr<Frame>> free_list;
};

/// Result parked in a stream's reorder buffer until its predecessors land.
struct HeldResult {
    core::DecodeResult result;  // copied: the worker's slot is recycled
    Clock::time_point enqueued_at{};
};

struct StreamState {
    StreamId id = 0;
    ClassId cls = 0;
    ResultFn fn;
    /// Next submission index; atomic so callbacks can submit to their own
    /// stream without re-entering the delivery lock.
    std::atomic<std::uint64_t> next_seq{0};
    // --- delivery state, guarded by mu ---
    std::mutex mu;
    std::uint64_t next_deliver = 0;
    std::map<std::uint64_t, HeldResult> held;
    LatencyHistogram latency;
    std::uint64_t delivered = 0;
    std::uint64_t ordering_violations = 0;
};

struct WorkerClass {
    std::unique_ptr<core::Engine> engine;
    std::vector<core::DecodeResult> results;  // reused across batches
};

struct Worker {
    std::thread th;
    /// Guards the structure of per_class against the metrics poller; the
    /// engines themselves are polled via convergence_snapshot(), which is
    /// safe against the worker's concurrent decode by design.
    mutable std::mutex engines_mu;
    std::unordered_map<ClassId, WorkerClass> per_class;
    std::vector<double> staging;                   // contiguous B·N llr block
    std::vector<std::unique_ptr<Frame>> claimed;   // current batch's frames
};

}  // namespace detail

struct DecodeService::Impl {
    using Frame = detail::Frame;
    using ClassState = detail::ClassState;
    using StreamState = detail::StreamState;
    using Worker = detail::Worker;
    using WorkerClass = detail::WorkerClass;

    explicit Impl(const ServiceConfig& c) : cfg(c) {}

    ServiceConfig cfg;

    mutable std::mutex mu_;
    std::condition_variable work_cv_;   // frames available / stopping
    std::condition_variable space_cv_;  // queue space freed / closing
    std::condition_variable drain_cv_;  // everything delivered
    std::deque<std::unique_ptr<ClassState>> classes_;
    std::deque<std::unique_ptr<StreamState>> streams_;
    std::size_t total_pending_ = 0;  // queued + reserved (copy in progress)
    std::size_t in_flight_ = 0;      // claimed by workers, not yet delivered
    bool closed_ = false;            // intake refused
    bool stopping_ = false;          // workers exit once the queue is empty
    // Admission counters (guarded by mu_ — they are only touched where mu_
    // is already held).
    std::uint64_t submitted_ = 0;
    std::uint64_t enqueued_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t peak_depth_ = 0;

    mutable std::mutex metrics_mu_;
    std::uint64_t decoded_ = 0;
    std::uint64_t decode_failures_ = 0;
    std::uint64_t callback_failures_ = 0;
    std::uint64_t batches_ = 0;
    std::uint64_t batch_frames_ = 0;
    std::uint64_t batch_slots_ = 0;
    std::uint64_t full_batches_ = 0;
    std::uint64_t linger_batches_ = 0;
    std::array<std::uint64_t, 10> fill_deciles_{};
    std::vector<ClassMetrics> class_metrics_;  // by ClassId; grows on a class's first batch
    LatencyHistogram latency_;

    std::vector<std::unique_ptr<Worker>> workers_;
    bool joined_ = false;  // guarded by join_mu_ (stop() idempotence)
    std::mutex join_mu_;

    // ------------------------------------------------------------ scheduler

    struct Claim {
        ClassState* cls = nullptr;
        ClassId cls_id = 0;
        bool linger_flush = false;
    };

    /// Claims the next batch into w.claimed. Policy: (1) the class with the
    /// most pending frames among those holding a full preferred_batch block;
    /// (2) once the oldest pending frame's linger deadline passes (or the
    /// service is stopping), the class owning that frame, partially filled.
    /// Otherwise sleep until the earliest deadline or a new frame. Returns
    /// false when the service is stopping and the queue is empty.
    bool claim_batch(Worker& w, Claim& out) {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            if (total_pending_ == 0) {
                if (stopping_) return false;
                work_cv_.wait(lock);
                continue;
            }
            ClassState* best_full = nullptr;
            ClassId best_full_id = 0;
            ClassState* oldest = nullptr;
            ClassId oldest_id = 0;
            Clock::time_point oldest_tp = Clock::time_point::max();
            for (std::size_t i = 0; i < classes_.size(); ++i) {
                ClassState& cs = *classes_[i];
                if (cs.pending.empty()) continue;
                if (cs.pending.size() >= cs.preferred &&
                    (best_full == nullptr || cs.pending.size() > best_full->pending.size())) {
                    best_full = &cs;
                    best_full_id = static_cast<ClassId>(i);
                }
                if (cs.pending.front()->enqueued_at < oldest_tp) {
                    oldest_tp = cs.pending.front()->enqueued_at;
                    oldest = &cs;
                    oldest_id = static_cast<ClassId>(i);
                }
            }
            if (oldest == nullptr) {
                // total_pending_ counts slots reserved by producers still
                // copying; the push that follows will notify us.
                work_cv_.wait(lock);
                continue;
            }
            ClassState* take = nullptr;
            ClassId take_id = 0;
            bool linger = false;
            if (best_full != nullptr) {
                take = best_full;
                take_id = best_full_id;
            } else if (stopping_) {
                take = oldest;
                take_id = oldest_id;
            } else {
                const auto deadline = oldest_tp + cfg.max_linger;
                if (Clock::now() < deadline) {
                    work_cv_.wait_until(lock, deadline);
                    continue;
                }
                take = oldest;
                take_id = oldest_id;
                linger = true;
            }
            const std::size_t count = std::min(take->pending.size(), take->preferred);
            w.claimed.clear();
            for (std::size_t i = 0; i < count; ++i) {
                w.claimed.push_back(std::move(take->pending.front()));
                take->pending.pop_front();
            }
            total_pending_ -= count;
            in_flight_ += count;
            out.cls = take;
            out.cls_id = take_id;
            out.linger_flush = linger && count < take->preferred;
            space_cv_.notify_all();
            // Another full block may already be waiting — chain a wakeup so
            // idle workers do not sit out a deep queue.
            if (total_pending_ > 0) work_cv_.notify_one();
            return true;
        }
    }

    /// Lazily builds this worker's engine for the class (one engine per
    /// (worker, class): engines are single-writer, never shared). Called
    /// inside the decode try, so a build failure counts as a decode failure.
    WorkerClass& worker_class(Worker& w, ClassId id, const ClassState& cs) {
        auto it = w.per_class.find(id);
        if (it == w.per_class.end()) {
            auto engine = core::make_engine(*cs.code, cs.spec);
            const std::lock_guard<std::mutex> lock(w.engines_mu);
            it = w.per_class.emplace(id, WorkerClass{std::move(engine), {}}).first;
        }
        return it->second;
    }

    // ------------------------------------------------------------- delivery

    void fire(StreamState& st, std::uint64_t seq, const core::DecodeResult& r,
              Clock::time_point enqueued_at) {
        const double lat = seconds_between(enqueued_at, Clock::now());
        st.latency.record_seconds(lat);
        ++st.delivered;
        {
            const std::lock_guard<std::mutex> lock(metrics_mu_);
            latency_.record_seconds(lat);
        }
        if (!st.fn) return;
        try {
            st.fn(StreamResult{st.id, seq, r, lat});
        } catch (...) {
            // User code must not take the worker (and the process) down:
            // count the failure and keep delivering the stream in order.
            const std::lock_guard<std::mutex> lock(metrics_mu_);
            ++callback_failures_;
        }
    }

    /// Delivers one decoded frame, re-ordering through the per-stream
    /// buffer so callbacks observe strict submission order even when two
    /// workers finish same-class batches out of order.
    void deliver(StreamState& st, const Frame& f, const core::DecodeResult& r) {
        const std::lock_guard<std::mutex> lock(st.mu);
        if (f.seq == st.next_deliver) {
            fire(st, f.seq, r, f.enqueued_at);
            ++st.next_deliver;
            auto it = st.held.begin();
            while (it != st.held.end() && it->first == st.next_deliver) {
                fire(st, it->first, it->second.result, it->second.enqueued_at);
                ++st.next_deliver;
                it = st.held.erase(it);
            }
        } else if (f.seq > st.next_deliver) {
            st.held.emplace(f.seq, detail::HeldResult{r, f.enqueued_at});
        } else {
            // A duplicate or past sequence number: a service bug, never
            // silently ignored (surfaces in metrics and the CI gate).
            ++st.ordering_violations;
        }
    }

    // ---------------------------------------------------------- worker loop

    void worker_main(Worker& w) {
        tl_worker_of = this;
        Claim c;
        while (claim_batch(w, c)) {
            ClassState& cs = *c.cls;
            const std::size_t b = w.claimed.size();
            const std::size_t n = cs.n;
            w.staging.resize(b * n);
            for (std::size_t i = 0; i < b; ++i)
                std::memcpy(w.staging.data() + i * n, w.claimed[i]->llr.data(),
                            n * sizeof(double));
            WorkerClass* wc = nullptr;
            bool failed = false;
            double decode_s = 0.0;
            try {
                wc = &worker_class(w, c.cls_id, cs);
                wc->results.resize(b);
                const auto t0 = Clock::now();
                wc->engine->decode_batch(std::span<const double>(w.staging.data(), b * n),
                                         std::span<core::DecodeResult>(wc->results.data(), b));
                decode_s = seconds_between(t0, Clock::now());
            } catch (...) {
                // Inputs are validated at submit() and specs at add_class(),
                // so this is a backend bug. Deliver explicit failures (empty
                // codeword, converged=false) instead of stalling the streams
                // or killing the process, and count it for the operator.
                failed = true;
            }
            const core::DecodeResult failure{};
            for (std::size_t i = 0; i < b; ++i) {
                StreamState* st = nullptr;
                {
                    const std::lock_guard<std::mutex> lock(mu_);
                    st = streams_[static_cast<std::size_t>(w.claimed[i]->stream)].get();
                }
                deliver(*st, *w.claimed[i], failed ? failure : wc->results[i]);
            }
            {
                const std::lock_guard<std::mutex> lock(metrics_mu_);
                ++batches_;
                batch_frames_ += b;
                batch_slots_ += cs.preferred;
                decoded_ += b;
                if (failed) ++decode_failures_;
                if (b == cs.preferred) ++full_batches_;
                if (c.linger_flush) ++linger_batches_;
                const std::size_t decile = (b * 10 + cs.preferred - 1) / cs.preferred - 1;
                ++fill_deciles_[std::min<std::size_t>(decile, 9)];
                if (class_metrics_.size() <= c.cls_id) class_metrics_.resize(c.cls_id + 1);
                ClassMetrics& cm = class_metrics_[c.cls_id];
                cm.frames += b;
                ++cm.batches;
                cm.decode_s += decode_s;
            }
            {
                const std::lock_guard<std::mutex> lock(mu_);
                in_flight_ -= b;
                for (auto& f : w.claimed) cs.free_list.push_back(std::move(f));
                w.claimed.clear();
                if (total_pending_ == 0 && in_flight_ == 0) drain_cv_.notify_all();
            }
        }
    }
};

// ------------------------------------------------------------- public API

DecodeService::DecodeService(ServiceConfig cfg) : cfg_(cfg) {
    DVBS2_REQUIRE(cfg.queue_capacity > 0,
                  "DecodeService: queue_capacity must be positive, got " +
                      std::to_string(cfg.queue_capacity));
    DVBS2_REQUIRE(cfg.max_linger.count() >= 0,
                  "DecodeService: max_linger must be non-negative, got " +
                      std::to_string(cfg.max_linger.count()) + "us");
    DVBS2_REQUIRE(cfg.workers <= util::kMaxThreads,
                  "DecodeService: workers must be at most " +
                      std::to_string(util::kMaxThreads) + " (0 = auto), got " +
                      std::to_string(cfg.workers));
    cfg_.workers = util::resolve_thread_count(cfg.workers);
    impl_ = std::make_unique<Impl>(cfg_);
    impl_->workers_.reserve(cfg_.workers);
    for (unsigned i = 0; i < cfg_.workers; ++i) {
        auto w = std::make_unique<detail::Worker>();
        detail::Worker* raw = w.get();
        impl_->workers_.push_back(std::move(w));
        raw->th = std::thread([this, raw] { impl_->worker_main(*raw); });
    }
}

DecodeService::~DecodeService() { stop(); }

ClassId DecodeService::add_class(const code::Dvbs2Code& code, core::EngineSpec spec) {
    core::validate_engine_spec(spec);
    // Build one prototype engine now: a build failure surfaces here, on the
    // registering thread, with its own diagnostic — and the prototype tells
    // us the class geometry.
    const auto proto = core::make_engine(code, spec);
    auto cs = std::make_unique<detail::ClassState>();
    cs->code = &code;
    cs->spec = spec;
    cs->n = proto->frame_length();
    cs->preferred = static_cast<std::size_t>(std::max(1, proto->preferred_batch()));
    const std::lock_guard<std::mutex> lock(impl_->mu_);
    impl_->classes_.push_back(std::move(cs));
    return static_cast<ClassId>(impl_->classes_.size() - 1);
}

StreamId DecodeService::open_stream(ClassId cls, ResultFn on_result) {
    const std::lock_guard<std::mutex> lock(impl_->mu_);
    DVBS2_REQUIRE(cls < impl_->classes_.size(),
                  "open_stream: unknown class id " + std::to_string(cls) + " (have " +
                      std::to_string(impl_->classes_.size()) + " classes)");
    auto st = std::make_unique<detail::StreamState>();
    st->id = static_cast<StreamId>(impl_->streams_.size());
    st->cls = cls;
    st->fn = std::move(on_result);
    impl_->streams_.push_back(std::move(st));
    return impl_->streams_.back()->id;
}

SubmitStatus DecodeService::submit(StreamId stream, std::span<const double> llr) {
    Impl& im = *impl_;
    detail::StreamState* st = nullptr;
    detail::ClassState* cs = nullptr;
    {
        const std::lock_guard<std::mutex> lock(im.mu_);
        DVBS2_REQUIRE(stream < im.streams_.size(),
                      "submit: unknown stream id " + std::to_string(stream) + " (have " +
                          std::to_string(im.streams_.size()) + " streams)");
        st = im.streams_[static_cast<std::size_t>(stream)].get();
        cs = im.classes_[st->cls].get();
    }
    // Input validation happens here, on the producer, before admission: a
    // malformed frame is the caller's bug and must neither occupy queue
    // space nor surface as a throw on a worker thread.
    DVBS2_REQUIRE(llr.size() == cs->n,
                  "submit: frame for stream " + std::to_string(stream) + " has " +
                      std::to_string(llr.size()) + " LLRs but its class decodes N=" +
                      std::to_string(cs->n) + " (expected span size == N)");
    for (std::size_t i = 0; i < llr.size(); ++i)
        DVBS2_REQUIRE(std::isfinite(llr[i]),
                      "submit: non-finite channel LLR at index " + std::to_string(i) +
                          " for stream " + std::to_string(stream));
    std::unique_ptr<detail::Frame> buf;
    {
        std::unique_lock<std::mutex> lock(im.mu_);
        ++im.submitted_;
        if (im.closed_) return SubmitStatus::Closed;
        if (im.total_pending_ >= im.cfg.queue_capacity) {
            if (im.cfg.admission == Admission::Reject) {
                ++im.dropped_;
                return SubmitStatus::Rejected;
            }
            im.space_cv_.wait(lock, [&im] {
                return im.closed_ || im.total_pending_ < im.cfg.queue_capacity;
            });
            if (im.closed_) return SubmitStatus::Closed;
        }
        // Reserve the slot while the copy happens outside the lock: drain()
        // and the workers see the frame as pending from this point on.
        ++im.total_pending_;
        im.peak_depth_ = std::max<std::uint64_t>(im.peak_depth_, im.total_pending_);
        ++im.enqueued_;
        if (!cs->free_list.empty()) {
            buf = std::move(cs->free_list.back());
            cs->free_list.pop_back();
        }
    }
    try {
        if (!buf) {
            buf = std::make_unique<detail::Frame>();
            buf->llr.resize(cs->n);
        }
    } catch (...) {
        // Release the reserved slot: the frame never existed.
        const std::lock_guard<std::mutex> lock(im.mu_);
        --im.total_pending_;
        --im.enqueued_;
        im.space_cv_.notify_all();
        throw;
    }
    std::memcpy(buf->llr.data(), llr.data(), cs->n * sizeof(double));
    buf->stream = stream;
    // The sequence number is only consumed for ACCEPTED frames — a rejected
    // frame leaves no gap, so delivery never stalls waiting for it.
    buf->seq = st->next_seq.fetch_add(1, std::memory_order_relaxed);
    buf->enqueued_at = Clock::now();
    {
        const std::lock_guard<std::mutex> lock(im.mu_);
        cs->pending.push_back(std::move(buf));
    }
    im.work_cv_.notify_one();
    return SubmitStatus::Accepted;
}

void DecodeService::drain() {
    Impl& im = *impl_;
    // From a result callback the wait would include the caller's own
    // in-flight batch, which cannot finish until the callback returns.
    if (tl_worker_of == &im)
        throw std::logic_error("DecodeService::drain() called from a result callback (a worker "
                               "thread of this service); it would wait for itself forever");
    std::unique_lock<std::mutex> lock(im.mu_);
    im.drain_cv_.wait(lock, [&im] { return im.total_pending_ == 0 && im.in_flight_ == 0; });
}

void DecodeService::stop() {
    Impl& im = *impl_;
    // From a result callback the join loop would join the calling worker
    // itself; refuse before touching any state, so the destructor's stop()
    // still joins every worker.
    if (tl_worker_of == &im)
        throw std::logic_error("DecodeService::stop() called from a result callback (a worker "
                               "thread of this service); a worker cannot join itself");
    {
        const std::lock_guard<std::mutex> lock(im.join_mu_);
        if (im.joined_) return;
        im.joined_ = true;
    }
    {
        const std::lock_guard<std::mutex> lock(im.mu_);
        im.closed_ = true;
        im.stopping_ = true;
    }
    im.work_cv_.notify_all();
    im.space_cv_.notify_all();
    for (auto& w : im.workers_)
        if (w->th.joinable()) w->th.join();
}

ServiceMetrics DecodeService::metrics() const {
    const Impl& im = *impl_;
    ServiceMetrics m;
    std::vector<detail::StreamState*> streams;
    // Completion counters before admission counters: a frame is enqueued
    // before it is decoded and both only grow, so this order keeps
    // decoded <= enqueued in every snapshot taken under traffic.
    {
        const std::lock_guard<std::mutex> lock(im.metrics_mu_);
        m.decoded = im.decoded_;
        m.decode_failures = im.decode_failures_;
        m.callback_failures = im.callback_failures_;
        m.batches = im.batches_;
        m.batch_frames = im.batch_frames_;
        m.batch_slots = im.batch_slots_;
        m.full_batches = im.full_batches_;
        m.linger_batches = im.linger_batches_;
        m.batch_fill_deciles = im.fill_deciles_;
        m.classes = im.class_metrics_;
        m.latency = im.latency_;
    }
    {
        const std::lock_guard<std::mutex> lock(im.mu_);
        m.classes.resize(im.classes_.size());  // classes not decoded yet read zero
        m.submitted = im.submitted_;
        m.enqueued = im.enqueued_;
        m.dropped = im.dropped_;
        m.queue_depth = im.total_pending_;
        m.peak_queue_depth = im.peak_depth_;
        streams.reserve(im.streams_.size());
        for (const auto& st : im.streams_) streams.push_back(st.get());
    }
    for (detail::StreamState* st : streams) {
        const std::lock_guard<std::mutex> lock(st->mu);
        m.ordering_violations += st->ordering_violations;
    }
    for (const auto& w : im.workers_) {
        const std::lock_guard<std::mutex> lock(w->engines_mu);
        for (const auto& [cls, wc] : w->per_class)
            if (wc.engine) m.convergence.merge(wc.engine->convergence_snapshot());
    }
    return m;
}

LatencySummary DecodeService::stream_latency(StreamId stream) const {
    const Impl& im = *impl_;
    detail::StreamState* st = nullptr;
    {
        const std::lock_guard<std::mutex> lock(im.mu_);
        DVBS2_REQUIRE(stream < im.streams_.size(),
                      "stream_latency: unknown stream id " + std::to_string(stream));
        st = im.streams_[static_cast<std::size_t>(stream)].get();
    }
    const std::lock_guard<std::mutex> lock(st->mu);
    LatencySummary s;
    s.frames = st->latency.total;
    s.p50_s = st->latency.percentile(0.50);
    s.p90_s = st->latency.percentile(0.90);
    s.p99_s = st->latency.percentile(0.99);
    return s;
}

int DecodeService::class_preferred_batch(ClassId cls) const {
    const std::lock_guard<std::mutex> lock(impl_->mu_);
    DVBS2_REQUIRE(cls < impl_->classes_.size(),
                  "class_preferred_batch: unknown class id " + std::to_string(cls));
    return static_cast<int>(impl_->classes_[cls]->preferred);
}

std::size_t DecodeService::class_frame_length(ClassId cls) const {
    const std::lock_guard<std::mutex> lock(impl_->mu_);
    DVBS2_REQUIRE(cls < impl_->classes_.size(),
                  "class_frame_length: unknown class id " + std::to_string(cls));
    return impl_->classes_[cls]->n;
}

}  // namespace dvbs2::service
