/**
 * @file
 * Shared scaffolding for the per-figure/per-table benchmark
 * harnesses.  Each binary in bench/ regenerates one table or figure
 * from the paper's evaluation section (see DESIGN.md's experiment
 * index); this header pins the corpus sizes and provides the
 * formatting helpers so the outputs line up run over run.
 */

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/optft.h"
#include "core/optslice.h"
#include "support/durable_file.h"
#include "support/table.h"
#include "support/thread_pool.h"

namespace oha::bench {

/** Standard corpus sizes (scaled-down analogues of Section 6.1's 64 /
 *  512-2048 input sets). */
constexpr std::size_t kRaceProfileRuns = 48;
constexpr std::size_t kRaceTestRuns = 16;
constexpr std::size_t kSliceProfileRuns = 48;
constexpr std::size_t kSliceTestRuns = 12;

inline core::OptFtConfig
standardOptFtConfig()
{
    core::OptFtConfig config;
    config.maxProfileRuns = kRaceProfileRuns;
    config.convergenceWindow = 8;
    return config;
}

inline core::OptSliceConfig
standardOptSliceConfig()
{
    core::OptSliceConfig config;
    config.maxProfileRuns = kSliceProfileRuns;
    config.convergenceWindow = 8;
    return config;
}

/** Print the standard experiment banner. */
inline void
banner(const char *experiment, const char *paperClaim)
{
    std::printf("================================================="
                "=====================\n");
    std::printf("%s\n", experiment);
    std::printf("paper: %s\n", paperClaim);
    std::printf("================================================="
                "=====================\n\n");
}

/**
 * Evaluate one benchmark per entry of @p names — fn(name) builds the
 * workload and runs its full test-set evaluation — batching the
 * evaluations over OHA_THREADS worker threads.  Results come back in
 * `names` order, so the printed tables are byte-identical for any
 * thread count.
 */
template <typename Fn>
auto
evalCorpus(const std::vector<std::string> &names, Fn fn)
    -> std::vector<decltype(fn(names.front()))>
{
    return support::runBatch(
        names.size(), [&](std::size_t i) { return fn(names[i]); });
}

/** Arithmetic mean helper (the paper reports plain averages). */
inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double sum = 0;
    for (double v : values)
        sum += v;
    return sum / double(values.size());
}

/** Monotonic wall clock in milliseconds. */
inline double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Wall-time spread of one deterministic measurement over N reps. */
struct Sample
{
    double medianMs = 0;
    double p90Ms = 0;
    /** What the measured run reported: delivered events, solver work
     *  units, interpreted steps... (identical across reps). */
    std::uint64_t events = 0;

    double
    eventsPerSec() const
    {
        return medianMs > 0 ? double(events) / (medianMs / 1000.0) : 0;
    }
};

/** The @p q quantile of the sorted @p values, linearly interpolated
 *  between closest ranks. */
inline double
quantileOfSorted(const std::vector<double> &values, double q)
{
    if (values.empty())
        return 0;
    const double pos = q * double(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - double(lo)) * (values[hi] - values[lo]);
}

/** Run @p runOnce (which returns its event count) @p reps times and
 *  report the median and p90 wall time. */
template <typename RunOnce>
Sample
measure(int reps, RunOnce runOnce)
{
    Sample sample;
    std::vector<double> ms;
    for (int rep = 0; rep < reps; ++rep) {
        const double t0 = nowMs();
        sample.events = runOnce();
        ms.push_back(nowMs() - t0);
    }
    std::sort(ms.begin(), ms.end());
    sample.medianMs = quantileOfSorted(ms, 0.5);
    sample.p90Ms = quantileOfSorted(ms, 0.9);
    return sample;
}

/**
 * Machine-readable sink for benchmark records.  Every harness creates
 * one with its figure name and calls add() per (workload, variant)
 * wall-clock measurement — a Sample records its median as wall_ms
 * plus its p90 — and write() emits `BENCH_<figure>.json` in the
 * working directory so the perf trajectory can be tracked across PRs
 * without scraping the human-readable tables.  `events` is the number
 * of delivered events when the harness tracks them, 0 otherwise.
 * Modeled (cost-model) numbers are never wall time: harnesses record
 * them through metric(), e.g. as "modeled_ms".
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string figure) : figure_(std::move(figure)) {}

    void
    add(const std::string &workload, const std::string &variant,
        double wallMs, std::uint64_t events = 0)
    {
        records_.push_back({workload, variant, wallMs, -1, events, "", 0});
    }

    void
    add(const std::string &workload, const std::string &variant,
        const Sample &sample)
    {
        records_.push_back({workload, variant, sample.medianMs,
                            sample.p90Ms, sample.events, "", 0});
    }

    /** Record a named scalar (slice size, alias rate, break-even
     *  seconds...) for harnesses whose headline number is not an
     *  event-throughput measurement. */
    void
    metric(const std::string &workload, const std::string &variant,
           const std::string &name, double value)
    {
        records_.push_back({workload, variant, 0, -1, 0, name, value});
    }

    /** Write BENCH_<figure>.json atomically (temp + fsync + rename —
     *  a crashed or disk-full run never truncates the previous
     *  report); returns false on I/O failure. */
    bool
    write() const
    {
        const std::string path = "BENCH_" + figure_ + ".json";
        char line[512];
        std::string json;
        // Thread-scaling series (service worker shards) are only
        // interpretable against the host's core count, so stamp it
        // into every report.
        std::snprintf(line, sizeof(line),
                      "{\n  \"figure\": \"%s\",\n"
                      "  \"hardware_concurrency\": %u,\n"
                      "  \"records\": [\n",
                      figure_.c_str(),
                      std::thread::hardware_concurrency());
        json += line;
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const Record &r = records_[i];
            const char *tail = i + 1 < records_.size() ? "," : "";
            if (!r.metricName.empty()) {
                std::snprintf(line, sizeof(line),
                              "    {\"workload\": \"%s\", \"variant\": "
                              "\"%s\", \"metric\": \"%s\", "
                              "\"value\": %.6f}%s\n",
                              r.workload.c_str(), r.variant.c_str(),
                              r.metricName.c_str(), r.metricValue, tail);
                json += line;
                continue;
            }
            const double perSec =
                r.wallMs > 0 ? double(r.events) / (r.wallMs / 1000.0) : 0;
            char p90[48] = "";
            if (r.p90Ms >= 0)
                std::snprintf(p90, sizeof(p90), "\"p90_ms\": %.3f, ",
                              r.p90Ms);
            std::snprintf(
                line, sizeof(line),
                "    {\"workload\": \"%s\", \"variant\": \"%s\", "
                "\"wall_ms\": %.3f, %s\"events\": %llu, "
                "\"events_per_sec\": %.0f}%s\n",
                r.workload.c_str(), r.variant.c_str(), r.wallMs, p90,
                static_cast<unsigned long long>(r.events), perSec, tail);
            json += line;
        }
        json += "  ]\n}\n";
        std::string error;
        if (!support::atomicWriteFile(path, json, &error)) {
            std::fprintf(stderr, "warning: cannot write %s: %s\n",
                         path.c_str(), error.c_str());
            return false;
        }
        std::printf("wrote %s (%zu records)\n", path.c_str(),
                    records_.size());
        return true;
    }

  private:
    struct Record
    {
        std::string workload;
        std::string variant;
        double wallMs; ///< the median, for Sample records
        double p90Ms;  ///< negative when not measured
        std::uint64_t events;
        std::string metricName; ///< empty for throughput records
        double metricValue;
    };

    std::string figure_;
    std::vector<Record> records_;
};

} // namespace oha::bench
