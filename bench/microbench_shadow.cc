/**
 * @file
 * Shadow-memory / trace-arena microbenchmark: delivered events per
 * second for the dynamic-analysis data plane, per workload and per
 * tool configuration.
 *
 * Unlike the figure/table harnesses (which report modeled costs), this
 * one measures real wall time of THIS implementation, so it is the
 * regression observable for the per-event hot path: FastTrack shadow
 * lookups, Giri trace appends, and the interpreter's event dispatch.
 * Three variants per workload:
 *
 *   interp-plain    uninstrumented interpreter floor (events = all
 *                   events that occurred, none delivered);
 *   fasttrack-full  full-plan FastTrack attached (race workloads);
 *   giri-full       full-plan GiriSlicer attached (slice workloads).
 *
 * Each measurement is the median (and p90) wall time of N identical
 * deterministic runs; the JSON (BENCH_microbench_shadow.json) carries
 * (workload, variant, wall-ms, delivered events) so the perf
 * trajectory is tracked across PRs.
 */

#include "bench_common.h"

#include "dyn/fasttrack.h"
#include "dyn/giri.h"
#include "dyn/plans.h"
#include "workloads/workloads.h"

using namespace oha;

namespace {

constexpr int kReps = 5;

bench::Sample
measurePlain(const workloads::Workload &workload)
{
    return bench::measure(kReps, [&] {
        exec::Interpreter interp(*workload.module,
                                 workload.testingSet.front());
        const auto result = interp.run();
        return result.totalEvents.total();
    });
}

bench::Sample
measureFastTrack(const workloads::Workload &workload,
                 const exec::InstrumentationPlan &plan)
{
    return bench::measure(kReps, [&] {
        dyn::FastTrack tool;
        exec::Interpreter interp(*workload.module,
                                 workload.testingSet.front());
        interp.attach(&tool, &plan);
        const auto result = interp.run();
        // Keep the race set observable so the tool work is not dead.
        if (tool.races().size() > 1u << 20)
            std::abort();
        return result.delivered[0].total();
    });
}

bench::Sample
measureGiri(const workloads::Workload &workload,
            const exec::InstrumentationPlan &plan)
{
    return bench::measure(kReps, [&] {
        dyn::GiriSlicer tool(*workload.module);
        exec::Interpreter interp(*workload.module,
                                 workload.testingSet.front());
        interp.attach(&tool, &plan);
        const auto result = interp.run();
        if (tool.traceLength() > 1ull << 40)
            std::abort();
        return result.delivered[0].total();
    });
}

} // namespace

int
main()
{
    bench::banner("Microbench: shadow-memory / trace hot-path throughput",
                  "per-event metadata work dominates dynamic-analysis "
                  "overhead (Section 2.3, Figure 2)");

    bench::JsonReport json("microbench_shadow");
    TextTable table({"workload", "variant", "wall ms", "events",
                     "events/sec"});

    std::uint64_t ftEvents = 0, giriEvents = 0;
    double ftMs = 0, giriMs = 0;

    auto row = [&](const std::string &name, const char *variant,
                   const bench::Sample &sample) {
        table.addRow({name, variant, fmtDouble(sample.medianMs, 2),
                      std::to_string(sample.events),
                      fmtDouble(sample.eventsPerSec() / 1e6, 2) + "M"});
        json.add(name, variant, sample);
    };

    for (const std::string &name : workloads::raceWorkloadNames()) {
        const auto workload = workloads::makeRaceWorkload(name, 1, 1);
        const auto plan = dyn::fullFastTrackPlan(*workload.module);
        row(name, "interp-plain", measurePlain(workload));
        const bench::Sample ft = measureFastTrack(workload, plan);
        row(name, "fasttrack-full", ft);
        ftEvents += ft.events;
        ftMs += ft.medianMs;
    }

    for (const std::string &name : workloads::sliceWorkloadNames()) {
        const auto workload = workloads::makeSliceWorkload(name, 1, 1);
        const auto plan = dyn::fullGiriPlan(*workload.module);
        row(name, "interp-plain", measurePlain(workload));
        const bench::Sample giri = measureGiri(workload, plan);
        row(name, "giri-full", giri);
        giriEvents += giri.events;
        giriMs += giri.medianMs;
    }

    std::printf("%s\n", table.str().c_str());
    std::printf("aggregate fasttrack-full: %.2fM events/sec "
                "(%llu events, %.1f ms)\n",
                ftMs > 0 ? ftEvents / ftMs / 1e3 : 0,
                static_cast<unsigned long long>(ftEvents), ftMs);
    std::printf("aggregate giri-full:      %.2fM events/sec "
                "(%llu events, %.1f ms)\n",
                giriMs > 0 ? giriEvents / giriMs / 1e3 : 0,
                static_cast<unsigned long long>(giriEvents), giriMs);

    json.write();
    return 0;
}
