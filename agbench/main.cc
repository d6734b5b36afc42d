/**
 * @file
 * agbench_run: runs one workload of the benchmark and prints one JSON
 * line of results on stdout:
 *
 *   {"correct": true, "attempted": N, "failed": 0,
 *    "metrics": {"<name>": <value>, ...}}
 *
 * Usage: agbench_run --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> [--trace-file <path>]
 *
 * An untraced run reports the end-to-end metrics; a traced run reports
 * the per-layer metrics and writes the Chrome trace of its spans.
 * Exits 0 when every output check passed, 1 when one failed, and 2 on
 * bad arguments.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_stats.h"
#include "host.h"
#include "workloads.h"

using namespace agbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "agbench_run: %s\nusage: agbench_run --workload "
                 "<svc_flash_serial|svc_chaos_t2|svc_sampled_diurnal|"
                 "fig_sweep> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-file <path>]\n",
                 why);
    return 2;
}

void
endToEnd(const RunReport &report, std::map<std::string, double> &out)
{
    out["chip_steps_per_s"] = percentile(report.roundChipStepsPerS, 0.5);
    out["op_ms_p50"] = percentile(report.opMs, 0.50);
    out["op_ms_p95"] = percentile(report.opMs, 0.95);
    out["cpu_s"] = percentile(report.roundCpuS, 0.5);
    out["setup_s"] = percentile(report.setupS, 0.5);
    out["peak_rss_mb"] = peakRssMb();
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    std::string traceFile;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            options.workload = value;
            haveWorkload = true;
        } else if (key == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (key == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
        } else if (key == "--trace") {
            options.traced = std::strtol(value.c_str(), &end, 10) != 0;
        } else if (key == "--trace-file") {
            traceFile = value;
        } else {
            return usage(("unknown option " + key).c_str());
        }
        if (end != nullptr && *end != '\0')
            return usage(("bad value for " + key).c_str());
    }
    if (!haveWorkload)
        return usage("--workload is required");
    if (!(options.seconds > 0.0))
        return usage("--seconds must be positive");
    const bool service = isServiceWorkload(options.workload);
    if (!service && options.workload != "fig_sweep")
        return usage(("unknown workload " + options.workload).c_str());

    RunReport report;
    SpanRecorder spans(false);
    if (options.traced)
        declareLayerMetrics(report);
    if (service)
        runService(options, report, spans);
    else
        runSweep(options, report, spans);

    std::map<std::string, double> metrics;
    if (options.traced) {
        metrics = report.layer;
        if (!traceFile.empty())
            report.check(spans.writeChromeTrace(traceFile),
                         "trace file written");
    } else {
        endToEnd(report, metrics);
        const double p95 = metrics["op_ms_p95"];
        report.check(countAbove(report.opMs, p95) >= 10,
                     "at least ten ops beyond the p95");
    }
    for (auto &[name, value] : metrics) {
        if (!std::isfinite(value)) {
            report.check(false, "metric " + name + " is finite");
            value = 0.0;
        }
    }

    const bool correct = report.checkFailures.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                (unsigned long long)report.attempted,
                (unsigned long long)report.failed);
    const char *sep = "";
    for (const auto &[name, value] : metrics) {
        std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
        sep = ", ";
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}
