/**
 * @file
 * Table 2 reproduction: end-to-end slicing analysis costs — the most
 * accurate analysis type (CS/CI) that runs for the sound and
 * predicated points-to and slicing analyses, their modeled times,
 * profiling time, break-even versus traditional hybrid slicing, and
 * the dynamic speedup.
 *
 * Paper reference: likely invariants let vim/nginx flip from CI to CS
 * analyses; break-even is 0s for several benchmarks and under three
 * minutes everywhere.
 */

#include "bench_common.h"

#include "analysis/andersen_cache.h"

using namespace oha;

int
main()
{
    bench::banner(
        "Table 2: OptSlice end-to-end analysis times and break-even",
        "predicated analyses run CS where sound ones cannot; "
        "break-even <= ~3 minutes");

    analysis::resetAndersenCache();

    TextTable table({"testname", "trad pts AT/t", "trad slice AT/t",
                     "profile", "opt pts AT/t", "opt slice AT/t",
                     "breakeven", "dyn speedup"});

    auto cell = [](const core::AnalysisPick &pick) {
        return std::string(pick.contextSensitive ? "CS " : "CI ") +
               fmtTime(pick.seconds);
    };

    bench::JsonReport json("table2_optslice_breakeven");
    for (const auto &name : workloads::sliceWorkloadNames()) {
        const auto workload = workloads::makeSliceWorkload(
            name, bench::kSliceProfileRuns, bench::kSliceTestRuns);
        const auto result =
            core::runOptSlice(workload, bench::standardOptSliceConfig());

        json.metric(name, "sound", "pts_s", result.soundPts.seconds);
        json.metric(name, "sound", "slice_s", result.soundSlice.seconds);
        json.metric(name, "optimistic", "pts_s", result.optPts.seconds);
        json.metric(name, "optimistic", "slice_s",
                    result.optSlice.seconds);
        json.metric(name, "optimistic", "profile_s",
                    result.profileSeconds);
        json.metric(name, "optimistic", "breakeven_s", result.breakEven);
        json.metric(name, "optimistic", "dyn_speedup",
                    result.dynSpeedup);

        table.addRow({result.name, cell(result.soundPts),
                      cell(result.soundSlice), fmtTime(result.profileSeconds),
                      cell(result.optPts), cell(result.optSlice),
                      result.breakEven < 0 ? std::string("-")
                                           : fmtTime(result.breakEven),
                      fmtSpeedup(result.dynSpeedup)});
    }

    const analysis::AndersenCacheStats stats =
        analysis::andersenCacheStats();
    json.metric("aggregate", "static-result-cache", "cache_hits",
                double(stats.staticHits));
    json.metric("aggregate", "static-result-cache", "cache_misses",
                double(stats.staticMisses));

    std::printf("%s\n", table.str().c_str());
    std::printf("(AT = analysis type: the most accurate of CS/CI that "
                "completes within budget; times are modeled seconds)\n");
    std::printf("static-result cache: %llu hits, %llu misses\n",
                static_cast<unsigned long long>(stats.staticHits),
                static_cast<unsigned long long>(stats.staticMisses));
    json.write();
    return 0;
}
