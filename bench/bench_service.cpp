// Service soak bench: the streaming decode service (src/service/) under
// sustained multi-tenant load — ≥1000 concurrent streams across mixed
// (rate, quant, schedule, backend) classes, several producer threads, and a
// shard-worker pool — plus a worker-scaling section that re-measures the
// PR 1 (parallel Monte-Carlo) and PR 3 (SIMD batching) speedup story on the
// service path: frames/s vs worker count, with the decoded-bit tally pinned
// invariant across worker counts (the service only re-batches; it must not
// change a bit).
//
//   bench_service                      # full soak (short frames, 6 classes)
//   bench_service --smoke --json=...  # CI mode: toy codes, seconds not minutes
//
// Each class's row reports its decoded frames, batches and seconds inside
// decode_batch (ServiceMetrics::classes), and its share of all classes'
// decode seconds. A numeric flag outside its range is a usage error naming
// the flag (exit 2), caught before any thread starts, with dvbs2_serve's
// ranges: --workers in [0, 4096] (0 = auto), --producers in [1, 4096],
// --streams and --queue at least 1, --frames and --linger-us at least 0,
// --iters in [0, INT_MAX].
//
// The JSON gate consumed by CI (.github/workflows/ci.yml) checks
// ordering_violations == 0, decode_failures == 0 and mean_batch_fill > 0.
// It reports no latency: the service's latency histogram has log2 buckets,
// so its percentiles read bucket edges (2^20, 2^21 µs), not percentiles.
// perfbench's service workloads measure exact submit→callback percentiles.
#include <climits>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "code/tanner.hpp"
#include "service/service.hpp"
#include "service/traffic.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace dvbs2;

namespace {

struct ClassPlan {
    std::string label;
    code::CodeParams params;
    core::EngineSpec spec;
};

core::EngineSpec make_spec(core::DecoderBackend backend, core::Schedule schedule,
                           quant::QuantSpec q, int max_iters) {
    core::EngineSpec spec;
    spec.arith = core::Arithmetic::Fixed;
    spec.config.backend = backend;
    spec.config.schedule = schedule;
    spec.config.max_iterations = max_iters;
    spec.config.early_stop = true;
    spec.quant = q;
    return spec;
}

/// The mixed-tenant class set of the full soak: three rates, both shipped
/// quantizers, four schedules, SIMD plus one scalar class (the scalar class
/// exercises the preferred_batch()==1 scheduling path alongside the lane
/// blocks).
std::vector<ClassPlan> soak_plan(int iters) {
    using core::DecoderBackend;
    using core::Schedule;
    const auto frame = code::FrameSize::Short;
    return {
        {"r1/2-q6-zigzag-simd", code::standard_params(code::CodeRate::R1_2, frame),
         make_spec(DecoderBackend::Simd, Schedule::ZigzagForward, quant::kQuant6, iters)},
        {"r3/4-q6-layered-simd", code::standard_params(code::CodeRate::R3_4, frame),
         make_spec(DecoderBackend::Simd, Schedule::Layered, quant::kQuant6, iters)},
        {"r2/5-q5-zigzag-simd", code::standard_params(code::CodeRate::R2_5, frame),
         make_spec(DecoderBackend::Simd, Schedule::ZigzagForward, quant::kQuant5, iters)},
        {"r1/2-q5-two-phase-simd", code::standard_params(code::CodeRate::R1_2, frame),
         make_spec(DecoderBackend::Simd, Schedule::TwoPhase, quant::kQuant5, iters)},
        {"r3/4-q6-zigzag-scalar", code::standard_params(code::CodeRate::R3_4, frame),
         make_spec(DecoderBackend::Scalar, Schedule::ZigzagForward, quant::kQuant6, iters)},
        {"r2/5-q6-segmented-simd", code::standard_params(code::CodeRate::R2_5, frame),
         make_spec(DecoderBackend::Simd, Schedule::ZigzagSegmented, quant::kQuant6, iters)},
    };
}

/// CI smoke: same topology, toy codes — runs in seconds on one core.
std::vector<ClassPlan> smoke_plan(int iters) {
    using core::DecoderBackend;
    using core::Schedule;
    return {
        {"toy-zigzag-simd", code::toy_params(12, 7, 2, 6, 3),
         make_spec(DecoderBackend::Simd, Schedule::ZigzagForward, quant::kQuant6, iters)},
        {"toy-layered-scalar", code::toy_params(12, 7, 2, 6, 3),
         make_spec(DecoderBackend::Scalar, Schedule::Layered, quant::kQuant6, iters)},
    };
}

struct RunOutcome {
    service::TrafficReport traffic;
    service::ServiceMetrics metrics;
    std::vector<int> preferred;          // per class
    std::vector<std::size_t> frame_len;  // per class
};

RunOutcome run_once(const std::vector<ClassPlan>& plan,
                    const std::vector<code::Dvbs2Code>& codes, const service::ServiceConfig& cfg,
                    const service::TrafficOptions& opt, double ebn0_db) {
    service::DecodeService svc(cfg);
    std::vector<service::TrafficClass> classes;
    RunOutcome out;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const auto cls = svc.add_class(codes[i], plan[i].spec);
        classes.push_back({cls, &codes[i], ebn0_db});
        out.preferred.push_back(svc.class_preferred_batch(cls));
        out.frame_len.push_back(svc.class_frame_length(cls));
    }
    out.traffic = service::run_traffic(svc, classes, opt);
    out.metrics = svc.metrics();
    svc.stop();
    return out;
}

void print_outcome(const std::vector<ClassPlan>& plan, const RunOutcome& o) {
    const auto& m = o.metrics;
    util::TextTable ct;
    ct.set_header({"class", "N", "preferred_batch", "frames", "batches", "decode [s]",
                   "ms/frame", "decode share"});
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const auto& c = m.classes[i];
        ct.add_row({plan[i].label, util::TextTable::num((long long)o.frame_len[i]),
                    util::TextTable::num((long long)o.preferred[i]),
                    util::TextTable::num((long long)c.frames),
                    util::TextTable::num((long long)c.batches), util::TextTable::num(c.decode_s, 3),
                    util::TextTable::num(c.frames ? c.decode_s * 1e3 / (double)c.frames : 0.0, 3),
                    util::TextTable::num(100.0 * m.decode_share(i), 1) + "%"});
    }
    ct.print(std::cout);

    const auto& t = o.traffic;
    util::TextTable st;
    st.set_header({"metric", "value"});
    st.add_row({"frames submitted", util::TextTable::num((long long)t.submitted)});
    st.add_row({"accepted / rejected", util::TextTable::num((long long)t.accepted) + " / " +
                                           util::TextTable::num((long long)t.rejected)});
    st.add_row({"delivered", util::TextTable::num((long long)t.delivered)});
    st.add_row({"throughput (frames/s)",
                util::TextTable::num(t.wall_s > 0 ? (double)t.delivered / t.wall_s : 0.0, 1)});
    st.add_row({"ordering violations (svc+cb)",
                util::TextTable::num((long long)(m.ordering_violations + t.ordering_violations))});
    st.add_row({"decode failures", util::TextTable::num((long long)m.decode_failures)});
    st.add_row({"peak queue depth", util::TextTable::num((long long)m.peak_queue_depth)});
    st.add_row({"batches (full / linger)",
                util::TextTable::num((long long)m.batches) + " (" +
                    util::TextTable::num((long long)m.full_batches) + " / " +
                    util::TextTable::num((long long)m.linger_batches) + ")"});
    st.add_row({"mean batch fill", util::TextTable::num(m.mean_batch_fill(), 3)});
    st.add_row({"mean iterations", util::TextTable::num(m.convergence.mean_iterations(), 2)});
    st.add_row({"converged fraction", util::TextTable::num(m.convergence.convergence_rate(), 3)});
    st.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
    try {
        util::CliArgs args(argc, argv,
                           {"smoke", "streams", "frames", "producers", "workers", "iters",
                            "ebn0", "queue", "linger-us", "json"});
        const bool smoke = args.has("smoke");
        // Every count is range-checked before anything is sized or started.
        constexpr long long kMaxThreads = util::kMaxThreads;
        service::ServiceConfig cfg;
        cfg.workers =
            static_cast<unsigned>(args.bounded_int("workers", 4, 0, kMaxThreads));  // 0 = auto
        cfg.queue_capacity =
            static_cast<std::size_t>(args.bounded_int("queue", smoke ? 128 : 512, 1, LLONG_MAX));
        cfg.max_linger = std::chrono::microseconds(
            args.bounded_int("linger-us", smoke ? 2000 : 20000, 0, LLONG_MAX));
        cfg.admission = service::Admission::Block;  // soak measures fill, not drops

        service::TrafficOptions opt;
        opt.streams =
            static_cast<std::size_t>(args.bounded_int("streams", smoke ? 96 : 1008, 1, LLONG_MAX));
        opt.frames_per_stream =
            static_cast<std::size_t>(args.bounded_int("frames", smoke ? 8 : 3, 0, LLONG_MAX));
        opt.producers = static_cast<unsigned>(args.bounded_int("producers", 4, 1, kMaxThreads));
        const int iters = static_cast<int>(args.bounded_int("iters", 10, 0, INT_MAX));
        const double ebn0 = args.get_double("ebn0", 3.5);

        bench::banner("service soak",
                      smoke ? "streaming decode service (smoke: toy codes)"
                            : "streaming decode service under multi-tenant load");
        const auto plan = smoke ? smoke_plan(iters) : soak_plan(iters);
        std::vector<code::Dvbs2Code> codes;
        codes.reserve(plan.size());
        for (const auto& p : plan) codes.emplace_back(p.params);

        std::cout << "hw_concurrency=" << std::thread::hardware_concurrency() << " workers="
                  << cfg.workers << " streams=" << opt.streams << " frames/stream="
                  << opt.frames_per_stream << " producers=" << opt.producers << "\n\n";

        const RunOutcome main_run = run_once(plan, codes, cfg, opt, ebn0);
        print_outcome(plan, main_run);

        // --- worker scaling: the PR 1 / PR 3 speedup story on this path ---
        // Same deterministic traffic at 1/2/4 workers. The decoded-bit tally
        // must be identical (decode_batch is bit-pinned; the service only
        // re-batches), mirroring the 1=2=8 thread pin of the Monte-Carlo
        // engine. On a 1-core container the speedup is honestly ~1x —
        // hw_concurrency lands in the JSON for that reason.
        service::TrafficOptions scale_opt = opt;
        scale_opt.streams = smoke ? 48 : 240;
        scale_opt.frames_per_stream = 2;
        struct ScaleRow {
            unsigned workers;
            double frames_per_s;
            double speedup;
            std::uint64_t bit_tally;
        };
        std::vector<ScaleRow> scaling;
        bool deterministic = true;
        for (unsigned w : {1u, 2u, 4u}) {
            service::ServiceConfig scfg = cfg;
            scfg.workers = w;
            const RunOutcome r = run_once(plan, codes, scfg, scale_opt, ebn0);
            const double fps =
                r.traffic.wall_s > 0 ? (double)r.traffic.delivered / r.traffic.wall_s : 0.0;
            scaling.push_back({w, fps, scaling.empty() ? 1.0 : fps / scaling.front().frames_per_s,
                               r.traffic.decoded_bit_tally});
            deterministic = deterministic &&
                            scaling.front().bit_tally == r.traffic.decoded_bit_tally &&
                            r.traffic.delivered == scale_opt.streams * scale_opt.frames_per_stream;
        }
        std::cout << "\nworker scaling (deterministic traffic, bit tally must not move):\n";
        util::TextTable wt;
        wt.set_header({"workers", "frames/s", "speedup vs 1", "decoded-bit tally"});
        for (const auto& r : scaling)
            wt.add_row({util::TextTable::num((long long)r.workers),
                        util::TextTable::num(r.frames_per_s, 1), util::TextTable::num(r.speedup, 2),
                        util::TextTable::num((long long)r.bit_tally)});
        wt.print(std::cout);

        const auto& m = main_run.metrics;
        const auto& t = main_run.traffic;
        const std::uint64_t violations = m.ordering_violations + t.ordering_violations;
        const bool pass = violations == 0 && m.decode_failures == 0 && deterministic &&
                          t.delivered == t.accepted;

        if (args.has("json")) {
            std::ofstream os(args.get("json", ""));
            os << "{\n  \"bench\": \"bench_service\",\n"
               << "  \"mode\": \"" << (smoke ? "smoke" : "soak") << "\",\n"
               << "  \"hw_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
               << "  \"workers\": " << cfg.workers << ",\n"
               << "  \"streams\": " << opt.streams << ",\n"
               << "  \"frames_per_stream\": " << opt.frames_per_stream << ",\n"
               << "  \"producers\": " << opt.producers << ",\n"
               << "  \"queue_capacity\": " << cfg.queue_capacity << ",\n"
               << "  \"max_linger_us\": " << cfg.max_linger.count() << ",\n"
               << "  \"classes\": [\n";
            for (std::size_t i = 0; i < plan.size(); ++i)
                os << "    {\"label\": \"" << plan[i].label << "\", \"n\": " << main_run.frame_len[i]
                   << ", \"preferred_batch\": " << main_run.preferred[i]
                   << ", \"frames\": " << m.classes[i].frames
                   << ", \"batches\": " << m.classes[i].batches
                   << ", \"decode_s\": " << m.classes[i].decode_s
                   << ", \"decode_share\": " << m.decode_share(i) << "}"
                   << (i + 1 < plan.size() ? "," : "") << "\n";
            os << "  ],\n"
               << "  \"submitted\": " << t.submitted << ",\n"
               << "  \"accepted\": " << t.accepted << ",\n"
               << "  \"rejected\": " << t.rejected << ",\n"
               << "  \"delivered\": " << t.delivered << ",\n"
               << "  \"frames_per_s\": " << (t.wall_s > 0 ? (double)t.delivered / t.wall_s : 0.0)
               << ",\n"
               << "  \"wall_s\": " << t.wall_s << ",\n"
               << "  \"ordering_violations\": " << violations << ",\n"
               << "  \"decode_failures\": " << m.decode_failures << ",\n"
               << "  \"peak_queue_depth\": " << m.peak_queue_depth << ",\n"
               << "  \"batches\": " << m.batches << ",\n"
               << "  \"full_batches\": " << m.full_batches << ",\n"
               << "  \"linger_batches\": " << m.linger_batches << ",\n"
               << "  \"mean_batch_fill\": " << m.mean_batch_fill() << ",\n"
               << "  \"batch_fill_deciles\": [";
            for (std::size_t i = 0; i < m.batch_fill_deciles.size(); ++i)
                os << (i ? ", " : "") << m.batch_fill_deciles[i];
            os << "],\n"
               << "  \"mean_iterations\": " << m.convergence.mean_iterations() << ",\n"
               << "  \"converged_fraction\": " << m.convergence.convergence_rate() << ",\n"
               << "  \"scaling\": [\n";
            for (std::size_t i = 0; i < scaling.size(); ++i)
                os << "    {\"workers\": " << scaling[i].workers
                   << ", \"frames_per_s\": " << scaling[i].frames_per_s
                   << ", \"speedup\": " << scaling[i].speedup
                   << ", \"bit_tally\": " << scaling[i].bit_tally << "}"
                   << (i + 1 < scaling.size() ? "," : "") << "\n";
            os << "  ],\n"
               << "  \"deterministic_across_workers\": " << (deterministic ? "true" : "false")
               << ",\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
            std::cout << "\nwrote " << args.get("json", "") << "\n";
        }

        std::cout << (pass ? "\nSERVICE PASS: in-order, loss-accounted, deterministic across "
                             "worker counts\n"
                           : "\nSERVICE FAIL: ordering/determinism/delivery invariant broken\n");
        return pass ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "bench_service: " << e.what() << "\n";
        return 2;
    }
}
