#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "func/warp_trace.hpp"
#include "isa/basic_block.hpp"
#include "sampling/analysis.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace photon;

void
Report::expect(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void
Scenario::roundDone()
{
    if (firstRoundRssMb_ == 0.0)
        firstRoundRssMb_ = perfbench::peakRssMb("self");
}

double
peakRssMb(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

PreparedJob
prepareJob(const service::JobSpec &spec, func::TraceStore *traces)
{
    PreparedJob job;
    job.spec = spec;
    GpuConfig gpu;
    driver::SimMode mode;
    timing::BackendKind backend;
    std::string err;
    if (!service::parseGpuName(spec.gpu, gpu, &err) ||
        !service::parseMode(spec.mode, mode, &err) ||
        !service::parseBackendName(spec.backend, backend, &err))
        throw std::runtime_error(spec.label() + ": " + err);
    {
        Scope s("driver.platform_ctor");
        job.platform = std::make_unique<driver::Platform>(
            gpu, mode, SamplingConfig{}, backend);
    }
    if (traces)
        job.platform->setTraceStore(traces);
    Scope s("workloads.setup");
    job.work = service::makeWorkload(spec.workload, spec.size, &err);
    if (!job.work)
        throw std::runtime_error(spec.label() + ": " + err);
    job.work->setup(*job.platform);
    return job;
}

namespace {

void
countSample(const sampling::KernelRunResult &r)
{
    Tracer &t = tracer();
    t.count("sampling.launches", 1);
    t.count("sampling.kernel_hits",
            r.level == sampling::SampleLevel::Kernel ? 1 : 0);
    t.count("sampling.warp_level",
            r.level == sampling::SampleLevel::Warp ? 1 : 0);
    t.count("sampling.bb_level",
            r.level == sampling::SampleLevel::BasicBlock ? 1 : 0);
    t.count("sampling.detailed_warps", r.telemetry.detailedWarps);
    t.count("sampling.total_warps", r.telemetry.totalWarps);
}

/** PhotonSampler's analysis-store key for a launch. */
std::string
analysisKey(const isa::Program &program, const func::LaunchDims &dims)
{
    std::ostringstream os;
    os << program.name() << '#' << dims.numWorkgroups << 'x'
       << dims.wavesPerWorkgroup;
    return os.str();
}

/** Platform::launch's full-mode path, one span per layer call. */
LaunchOutcome
layerLaunchFull(driver::Platform &p, const isa::Program &prog,
                const func::LaunchDims &dims)
{
    func::GlobalMemory &mem = p.mem();
    func::LaunchTracePtr trace;
    if (p.traceReuse() && func::traceable(prog)) {
        std::string key;
        {
            Scope s("func.trace_key");
            key = func::traceKey(prog, dims, mem);
        }
        trace = p.traceStore().lookup(key);
        if (trace) {
            Scope s("func.replay_apply");
            func::applyAllStores(*trace, mem);
            tracer().count("func.trace_hits", 1);
        } else {
            {
                Scope s("func.capture");
                trace = func::captureLaunchTrace(prog, dims, mem);
            }
            p.traceStore().insert(key, trace);
            std::vector<std::uint8_t> blob;
            func::serializeLaunchTrace(*trace, blob);
            tracer().count("func.captures", 1);
            tracer().count("func.trace_bytes",
                           static_cast<double>(blob.size()));
        }
    }
    timing::RunOptions run_opts;
    run_opts.replay = trace.get();
    const bool interval =
        p.backendKind() == timing::BackendKind::Interval;
    timing::RunOutcome out;
    {
        Scope s(interval ? "timing.interval" : "timing.detailed");
        out = p.activeBackend().runKernel(prog, dims, mem, nullptr,
                                          run_opts);
    }
    if (!interval)
        tracer().count("timing.sim_insts",
                       static_cast<double>(out.instsIssued));
    return {out.cycles(), out.instsIssued};
}

/** Platform::launch's Photon path: the analysis pass (and the block
 *  table it needs) run here first, so PhotonSampler::runKernel finds
 *  them in its store, exactly as a repeated launch key would. */
LaunchOutcome
layerLaunchPhoton(driver::Platform &p, const isa::Program &prog,
                  const func::LaunchDims &dims)
{
    func::GlobalMemory &mem = p.mem();
    sampling::PhotonSampler &ph = *p.photon();
    func::LaunchTracePtr trace;
    if (p.traceReuse() && func::traceable(prog)) {
        Scope s("func.trace_key");
        trace = p.traceStore().lookup(func::traceKey(prog, dims, mem));
    }
    const SamplingConfig &cfg = ph.config();
    std::string key = analysisKey(prog, dims);
    if (!ph.analysisStore().count(key)) {
        std::optional<isa::BasicBlockTable> bb;
        {
            Scope s("isa.bb_table");
            bb.emplace(prog, cfg.bbSplitAtWaitcnt);
        }
        sampling::OnlineAnalysis analysis;
        {
            Scope s("sampling.analysis");
            analysis = sampling::analyzeKernel(prog, *bb, dims, mem, cfg,
                                               trace.get());
        }
        sampling::PhotonSampler::AnalysisStore store = ph.analysisStore();
        store.emplace(key, std::move(analysis));
        ph.importAnalysisStore(std::move(store));
    }
    sampling::KernelRunResult r;
    {
        Scope s("sampling.photon");
        r = ph.runKernel(prog, dims, mem, trace.get());
    }
    countSample(r);
    return {r.cycles, r.insts};
}

} // namespace

JobOutcome
simulateJob(PreparedJob &job, bool layers)
{
    driver::Platform &p = *job.platform;
    JobOutcome out;
    Clock::time_point t0 = Clock::now();
    for (const workloads::LaunchSpec &ls : job.work->launches()) {
        LaunchOutcome lo;
        if (layers) {
            Scope s("launch");
            func::LaunchDims dims;
            dims.numWorkgroups = ls.numWorkgroups;
            dims.wavesPerWorkgroup = ls.wavesPerWorkgroup;
            dims.kernargBase = ls.kernarg;
            if (p.mode() == driver::SimMode::Photon)
                lo = layerLaunchPhoton(p, *ls.program, dims);
            else
                lo = layerLaunchFull(p, *ls.program, dims);
        } else {
            driver::LaunchResult r;
            {
                Scope s("driver.launch");
                r = p.launch(ls.program, ls.numWorkgroups,
                             ls.wavesPerWorkgroup, ls.kernarg, ls.label);
            }
            tracer().count("driver.launches", 1);
            if (p.mode() == driver::SimMode::Photon)
                countSample(r.sample);
            lo = {r.sample.cycles, r.sample.insts};
        }
        out.cycles += lo.cycles;
        out.insts += lo.insts;
        out.launches.push_back(lo);
    }
    out.seconds = secondsSince(t0);
    return out;
}

void
countMemStats(const driver::Platform &platform)
{
    if (!tracer().on())
        return;
    StatRegistry stats = platform.stats();
    for (const char *name :
         {"mem.l1v.hits", "mem.l1v.misses", "mem.l2.hits", "mem.l2.misses",
          "mem.dram.accesses"}) {
        if (stats.has(name))
            tracer().count(name, stats.get(name));
    }
}

double
errorPct(Cycle fast, Cycle detailed)
{
    if (detailed == 0)
        return 0.0;
    double d = static_cast<double>(detailed);
    return 100.0 * std::fabs(static_cast<double>(fast) - d) / d;
}

bool
checkOutputs(PreparedJob &job)
{
    return job.work->check(*job.platform);
}

bool
checkErrorBound(Cycle fast, Cycle detailed, double bound_pct)
{
    return detailed > 0 && errorPct(fast, detailed) <= bound_pct;
}

bool
responseMatches(const serve::ServeResult &r, const JobOutcome &ref)
{
    return r.ok && r.cycles == ref.cycles && r.insts == ref.insts;
}

bool
twinsAgree(const service::JobResult &detailed,
           const service::JobResult &interval)
{
    return detailed.insts == interval.insts &&
           interval.traceCaptures == 0 &&
           interval.traceHits == interval.kernels;
}

bool
sameOutcome(const JobOutcome &a, const JobOutcome &b)
{
    if (a.cycles != b.cycles || a.insts != b.insts ||
        a.launches.size() != b.launches.size())
        return false;
    for (std::size_t i = 0; i < a.launches.size(); ++i) {
        if (a.launches[i].cycles != b.launches[i].cycles ||
            a.launches[i].insts != b.launches[i].insts)
            return false;
    }
    return true;
}

bool
checkArtifactOutputs(PreparedJob &job, const service::Artifact &artifact,
                     std::string *why)
{
    func::GlobalMemory &mem = job.platform->mem();
    for (const workloads::LaunchSpec &ls : job.work->launches()) {
        func::LaunchDims dims;
        dims.numWorkgroups = ls.numWorkgroups;
        dims.wavesPerWorkgroup = ls.wavesPerWorkgroup;
        dims.kernargBase = ls.kernarg;
        auto it = artifact.traces.find(func::traceKey(*ls.program, dims,
                                                      mem));
        if (it == artifact.traces.end()) {
            *why = job.spec.label() + ": no trace for launch " + ls.label;
            return false;
        }
        func::applyAllStores(*it->second, mem);
    }
    if (!job.work->check(*job.platform)) {
        *why = job.spec.label() + ": outputs differ from host reference";
        return false;
    }
    return true;
}

bool
corruptOutputWord(PreparedJob &job)
{
    PreparedJob fresh = prepareJob(job.spec);
    func::GlobalMemory &mem = job.platform->mem();
    const func::GlobalMemory &ref = fresh.platform->mem();
    std::uint64_t n = std::min(mem.allocated(), ref.allocated());
    for (Addr a = kLineBytes; a + 4 <= n; a += 4) {
        std::uint32_t v = mem.read32(a);
        if (v != ref.read32(a)) {
            mem.write32(a, v ^ 0x40000000u);
            return true;
        }
    }
    return false;
}

} // namespace perfbench
