// dvbs2_serve — demo front end for the streaming decode service
// (src/service/service.hpp): stands up a DecodeService, registers one or
// more decode classes, drives them with the deterministic traffic generator
// and prints the service metrics. See README.md ("Streaming decode
// service") for a quickstart.
//
//   dvbs2_serve                                  # defaults: toy code, quick
//   dvbs2_serve --rate=1/2 --frame=short --streams=200 --workers=4
//   dvbs2_serve --rate=1/2,3/4 --backend=simd --admission=block
//
// Exit code: 0 when every accepted frame was delivered in order with no
// decode failures, 1 otherwise, 2 on usage errors. A numeric flag outside
// its range is a usage error naming the flag, caught before any thread
// starts: --workers in [0, 4096] (0 = auto), --producers in [1, 4096],
// --streams and --queue at least 1, --frames, --iters and --linger-us at
// least 0.
#include <climits>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "code/params.hpp"
#include "code/tanner.hpp"
#include "service/service.hpp"
#include "service/traffic.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace dvbs2;

namespace {

std::vector<std::string> split_csv(const std::string& s) {
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(item);
    return out;
}

code::CodeRate parse_rate(const std::string& s) {
    for (auto r : code::all_rates())
        if (code::to_string(r) == s) return r;
    throw std::runtime_error("unknown rate \"" + s + "\" (e.g. 1/2, 2/3, 3/4)");
}

}  // namespace

int main(int argc, char** argv) {
    try {
        util::CliArgs args(argc, argv,
                           {"rate", "frame", "backend", "schedule", "quant", "iters", "ebn0",
                            "workers", "streams", "frames", "producers", "queue", "linger-us",
                            "admission", "toy"});
        constexpr long long kMaxThreads = util::kMaxThreads;
        const long long workers = args.bounded_int("workers", 0, 0, kMaxThreads);  // 0 = auto
        const long long producers = args.bounded_int("producers", 2, 1, kMaxThreads);
        const long long streams = args.bounded_int("streams", 64, 1, LLONG_MAX);
        const long long frames = args.bounded_int("frames", 8, 0, LLONG_MAX);
        const long long queue = args.bounded_int("queue", 256, 1, LLONG_MAX);
        const long long linger_us = args.bounded_int("linger-us", 5000, 0, LLONG_MAX);
        const long long iters = args.bounded_int("iters", 10, 0, INT_MAX);

        // --- decode classes ---
        core::EngineSpec spec;
        spec.arith = core::Arithmetic::Fixed;
        const std::string backend = args.get("backend", "simd");
        if (backend == "simd") spec.config.backend = core::DecoderBackend::Simd;
        else if (backend == "scalar") spec.config.backend = core::DecoderBackend::Scalar;
        else throw std::runtime_error("unknown --backend=" + backend + " (simd|scalar)");
        const std::string sched = args.get("schedule", "zigzag");
        if (sched == "zigzag") spec.config.schedule = core::Schedule::ZigzagForward;
        else if (sched == "two-phase") spec.config.schedule = core::Schedule::TwoPhase;
        else if (sched == "segmented") spec.config.schedule = core::Schedule::ZigzagSegmented;
        else if (sched == "map") spec.config.schedule = core::Schedule::ZigzagMap;
        else if (sched == "layered") spec.config.schedule = core::Schedule::Layered;
        else
            throw std::runtime_error("unknown --schedule=" + sched +
                                     " (zigzag|two-phase|segmented|map|layered)");
        const long long qbits = args.get_int("quant", 6);
        if (qbits == 6) spec.quant = quant::kQuant6;
        else if (qbits == 5) spec.quant = quant::kQuant5;
        else throw std::runtime_error("unsupported --quant=" + std::to_string(qbits) + " (5|6)");
        spec.config.max_iterations = static_cast<int>(iters);

        std::vector<code::CodeParams> params;
        std::vector<std::string> labels;
        if (args.has("rate")) {
            const auto frame = args.get("frame", "short") == "long" ? code::FrameSize::Long
                                                                    : code::FrameSize::Short;
            for (const auto& r : split_csv(args.get("rate", "1/2"))) {
                params.push_back(code::standard_params(parse_rate(r), frame));
                labels.push_back("rate " + r);
            }
        } else {
            // Default demo: the toy code — instant feedback on any machine.
            params.push_back(code::toy_params(12, 7, 2, 6, 3));
            labels.push_back("toy code");
        }
        std::vector<code::Dvbs2Code> codes;
        codes.reserve(params.size());
        for (const auto& p : params) codes.emplace_back(p);

        // --- service ---
        service::ServiceConfig cfg;
        cfg.workers = static_cast<unsigned>(workers);
        cfg.queue_capacity = static_cast<std::size_t>(queue);
        cfg.max_linger = std::chrono::microseconds(linger_us);
        const std::string adm = args.get("admission", "block");
        if (adm == "block") cfg.admission = service::Admission::Block;
        else if (adm == "reject") cfg.admission = service::Admission::Reject;
        else throw std::runtime_error("unknown --admission=" + adm + " (block|reject)");

        service::DecodeService svc(cfg);
        std::vector<service::TrafficClass> classes;
        for (std::size_t i = 0; i < codes.size(); ++i) {
            const auto cls = svc.add_class(codes[i], spec);
            classes.push_back({cls, &codes[i], args.get_double("ebn0", 3.5)});
            std::cout << "class " << cls << ": " << labels[i] << ", N=" << svc.class_frame_length(cls)
                      << ", preferred_batch=" << svc.class_preferred_batch(cls) << "\n";
        }

        service::TrafficOptions opt;
        opt.streams = static_cast<std::size_t>(streams);
        opt.frames_per_stream = static_cast<std::size_t>(frames);
        opt.producers = static_cast<unsigned>(producers);
        std::cout << "serving " << opt.streams << " streams x " << opt.frames_per_stream
                  << " frames from " << opt.producers << " producers on " << svc.config().workers
                  << " workers (hw_concurrency=" << std::thread::hardware_concurrency() << ")\n\n";

        const auto rep = service::run_traffic(svc, classes, opt);
        const auto m = svc.metrics();
        svc.stop();

        util::TextTable t;
        t.set_header({"metric", "value"});
        t.add_row({"submitted / accepted / rejected",
                   util::TextTable::num((long long)rep.submitted) + " / " +
                       util::TextTable::num((long long)rep.accepted) + " / " +
                       util::TextTable::num((long long)rep.rejected)});
        t.add_row({"delivered (in order)", util::TextTable::num((long long)rep.delivered)});
        t.add_row({"throughput (frames/s)",
                   util::TextTable::num(rep.wall_s > 0 ? (double)rep.delivered / rep.wall_s : 0.0,
                                        1)});
        t.add_row({"ordering violations",
                   util::TextTable::num((long long)(m.ordering_violations + rep.ordering_violations))});
        t.add_row({"decode failures", util::TextTable::num((long long)m.decode_failures)});
        t.add_row({"callback failures", util::TextTable::num((long long)m.callback_failures)});
        t.add_row({"peak queue depth", util::TextTable::num((long long)m.peak_queue_depth)});
        t.add_row({"mean batch fill", util::TextTable::num(m.mean_batch_fill(), 3)});
        t.add_row({"latency p50 / p99 (ms)",
                   util::TextTable::num(m.latency.percentile(0.5) * 1e3, 2) + " / " +
                       util::TextTable::num(m.latency.percentile(0.99) * 1e3, 2)});
        t.add_row({"mean iterations", util::TextTable::num(m.convergence.mean_iterations(), 2)});
        t.add_row({"converged fraction", util::TextTable::num(m.convergence.convergence_rate(), 3)});
        t.print(std::cout);

        util::TextTable ct;
        ct.set_header({"class", "frames", "batches", "decode [s]", "decode share"});
        for (std::size_t i = 0; i < m.classes.size(); ++i)
            ct.add_row({util::TextTable::num((long long)i) + " (" + labels[i] + ")",
                        util::TextTable::num((long long)m.classes[i].frames),
                        util::TextTable::num((long long)m.classes[i].batches),
                        util::TextTable::num(m.classes[i].decode_s, 3),
                        util::TextTable::num(100.0 * m.decode_share(i), 1) + "%"});
        std::cout << "\n";
        ct.print(std::cout);

        const bool ok = m.ordering_violations + rep.ordering_violations == 0 &&
                        m.decode_failures == 0 && rep.delivered == rep.accepted;
        std::cout << (ok ? "\nOK: every accepted frame delivered in order\n"
                         : "\nFAIL: service invariant broken\n");
        return ok ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "dvbs2_serve: " << e.what() << "\n";
        return 2;
    }
}
