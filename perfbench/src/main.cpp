/**
 * @file
 * Benchmark driver: sets one workload up, runs whole rounds of its fast
 * and detailed jobs for --seconds, checks the outputs and prints one
 * JSON result line. With --trace 1 it runs one untraced round, then
 * traced rounds, and reports per-layer metrics instead; the spans are
 * written to <run-dir>/spans-<workload>.json at the end.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --photon-sim PATH --run-dir DIR
 *   perfbench --selftest
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "bench.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct LayerDef
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in BENCHMARK.json order. A layer the
 *  workload never calls reads 0 (its spans and counters are absent). */
constexpr LayerDef kLayers[] = {
    {"workloads.setup_s", "s"},
    {"isa.bb_table_s", "s"},
    {"func.capture_s", "s"},
    {"func.captures", "count"},
    {"func.replay_apply_s", "s"},
    {"func.trace_hits", "count"},
    {"func.trace_bytes", "bytes"},
    {"timing.detailed_s", "s"},
    {"timing.sim_insts", "count"},
    {"timing.host_ns_per_inst", "ns"},
    {"timing.interval_s", "s"},
    {"timing.l1v_hit_rate", "ratio"},
    {"timing.l2_hit_rate", "ratio"},
    {"timing.dram_accesses", "count"},
    {"sampling.analysis_s", "s"},
    {"sampling.photon_s", "s"},
    {"sampling.kernel_hits", "count"},
    {"sampling.warp_level", "count"},
    {"sampling.bb_level", "count"},
    {"sampling.detailed_warp_fraction", "ratio"},
    {"driver.platform_ctor_s", "s"},
    {"driver.launch_s", "s"},
    {"driver.launches", "count"},
    {"service.campaign_s", "s"},
    {"service.steal_ops", "count"},
    {"service.artifact_save_s", "s"},
    {"service.artifact_load_s", "s"},
    {"service.artifact_bytes", "bytes"},
    {"serve.request_p50_ms", "ms"},
    {"serve.request_p90_ms", "ms"},
    {"serve.ping_ms", "ms"},
    {"serve.latency_growth", "ratio"},
    {"serve.dedup_collapsed", "count"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.checkpoints", "count"},
    {"serve.store_bytes", "bytes"},
    {"trace.overhead_pct", "%"},
    {"trace.layer_coverage", "ratio"},
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Per-layer values of traced round @p r: a counter of the metric's own
 *  name, or one derived from spans and counters below. */
std::map<std::string, double>
layerValues(int r, double overhead_pct)
{
    const Tracer &t = tracer();
    auto span = [&](const char *n) { return t.total(n, r); };
    auto cnt = [&](const char *n) { return t.counter(n, r); };
    std::map<std::string, double> v;
    for (const LayerDef &d : kLayers)
        v[d.name] = cnt(d.name);
    v["workloads.setup_s"] = span("workloads.setup");
    v["isa.bb_table_s"] = span("isa.bb_table");
    v["func.capture_s"] = span("func.capture");
    v["func.replay_apply_s"] = span("func.replay_apply");
    v["timing.detailed_s"] = span("timing.detailed");
    v["timing.host_ns_per_inst"] =
        1e9 * ratio(span("timing.detailed"), cnt("timing.sim_insts"));
    v["timing.interval_s"] = span("timing.interval");
    v["timing.l1v_hit_rate"] =
        ratio(cnt("mem.l1v.hits"),
              cnt("mem.l1v.hits") + cnt("mem.l1v.misses"));
    v["timing.l2_hit_rate"] = ratio(
        cnt("mem.l2.hits"), cnt("mem.l2.hits") + cnt("mem.l2.misses"));
    v["timing.dram_accesses"] = cnt("mem.dram.accesses");
    v["sampling.analysis_s"] = span("sampling.analysis");
    v["sampling.photon_s"] = span("sampling.photon");
    v["sampling.detailed_warp_fraction"] =
        ratio(cnt("sampling.detailed_warps"), cnt("sampling.total_warps"));
    v["driver.platform_ctor_s"] = span("driver.platform_ctor");
    v["driver.launch_s"] = span("driver.launch");
    v["service.campaign_s"] = span("service.campaign");
    v["service.artifact_save_s"] = span("service.artifact_save");
    v["service.artifact_load_s"] = span("service.artifact_load");
    v["trace.overhead_pct"] = overhead_pct;
    v["trace.layer_coverage"] = t.layerCoverage(r);
    return v;
}

void
printResult(const Report &rep, const std::vector<Metric> &metrics)
{
    std::string line = "{\"correct\": ";
    line += rep.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(rep.attempted);
    line += ", \"failed\": " + std::to_string(rep.failed);
    line += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
        line += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + buf + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    line += "}}";
    std::fflush(stderr);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --photon-sim PATH --run-dir DIR\n"
                 "       perfbench --selftest\n"
                 "  W: dnn-resnet18 mm-512 dse-sweep photond-stream\n");
    return 2;
}

int
run(const Options &o, Clock::time_point start)
{
    std::unique_ptr<Scenario> sc;
    if (o.workload == "dse-sweep")
        sc = makeDseScenario(o);
    else if (o.workload == "photond-stream")
        sc = makePhotondScenario(o);
    else
        sc = makeInProcessScenario(o);
    if (!sc)
        return usage();

    Report rep;
    sc->setUp(rep);
    const double setup_s = secondsSince(start);

    Clock::time_point m0 = Clock::now();
    // Whole rounds: another starts while, at the last round's pace, at
    // least half of it falls within --seconds, so a run lasts about
    // --seconds on a fast host and on a slow one.
    double last_round_s = 0.0;
    auto more = [&] {
        return secondsSince(m0) + last_round_s / 2 < o.seconds;
    };
    std::vector<Metric> metrics;
    if (!o.trace) {
        // Host times are stated at the reference host speed: each timed
        // phase's are scaled by kReferenceProbeS over the mean of the
        // host probes taken just before and after it, set-up's by the
        // probe that follows it (hostspeed.cpp).
        std::vector<double> fast, det, err;
        double probe_before = hostProbeSeconds();
        double probe_mid = 0.0;
        const double setup_scale = kReferenceProbeS / probe_before;
        sc->setBetweenPhases([&] { probe_mid = hostProbeSeconds(); });
        do {
            Clock::time_point r0 = Clock::now();
            RoundTimes r = sc->round(false, rep);
            sc->roundDone();
            const double probe_after = hostProbeSeconds();
            const double first =
                kReferenceProbeS / ((probe_before + probe_mid) / 2);
            const double second =
                kReferenceProbeS / ((probe_mid + probe_after) / 2);
            const double fast_scale = r.detailedFirst ? second : first;
            const double det_scale = r.detailedFirst ? first : second;
            std::fprintf(stderr,
                         "perfbench: round %zu fast_s=%.4f detailed_s=%.4f "
                         "(wall) probe_s=%.4f,%.4f,%.4f "
                         "cycle_error_pct=%.4f\n",
                         fast.size() + 1, r.fastS, r.detailedS,
                         probe_before, probe_mid, probe_after, r.errorPct);
            fast.push_back(r.fastS * fast_scale);
            det.push_back(r.detailedS * det_scale);
            err.push_back(r.errorPct);
            probe_before = probe_after;
            last_round_s = secondsSince(r0);
        } while (more());
        sc->setBetweenPhases({});
        const double rss = sc->peakRssMb();
        sc->finish(rep);
        std::fprintf(stderr, "perfbench: setup_s=%.4f (wall)\n", setup_s);
        metrics = {{"setup_s", setup_s * setup_scale, "s"},
                   {"fast_s", median(fast), "s"},
                   {"detailed_s", median(det), "s"},
                   {"cycle_error_pct", median(err), "%"},
                   {"peak_rss_mb", rss, "MB"}};
    } else {
        RoundTimes base = sc->round(false, rep);
        tracer().enable();
        std::vector<double> sim;
        int rounds = 0;
        do {
            Clock::time_point r0 = Clock::now();
            tracer().setRound(++rounds);
            Scope root(o.workload);
            RoundTimes t = sc->round(true, rep);
            sim.push_back(t.fastS + t.detailedS);
            last_round_s = secondsSince(r0);
        } while (more());
        double overhead =
            100.0 * (median(sim) / (base.fastS + base.detailedS) - 1.0);
        std::map<std::string, std::vector<double>> per;
        for (int round = 1; round <= rounds; ++round) {
            for (const auto &[name, value] : layerValues(round, overhead))
                per[name].push_back(value);
        }
        for (const LayerDef &d : kLayers)
            metrics.push_back({d.name, median(per[d.name]), d.unit});
        std::string path = o.runDir + "/spans-" + o.workload + ".json";
        rep.expect(tracer().write(path), "spans written to " + path);
    }
    printResult(rep, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point start = Clock::now();
    Options o;
    bool selftest = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload") o.workload = next();
        else if (a == "--seed") o.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (a == "--seconds") o.seconds = std::atoi(next().c_str());
        else if (a == "--trace") o.trace = next() == "1";
        else if (a == "--photon-sim") o.photonSim = next();
        else if (a == "--run-dir") o.runDir = next();
        else if (a == "--selftest") selftest = true;
        else return usage();
    }
    if (o.runDir.empty())
        o.runDir = ".";
    try {
        if (selftest)
            return runSelfTest();
        return run(o, start);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
