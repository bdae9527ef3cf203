/**
 * @file
 * dse-sweep: a design-space sweep through the campaign runner with two
 * workers. The detailed jobs run cold and their store and traces are
 * saved to an artifact; the interval-backend twins load it and replay
 * the traces. Inputs are fixed: campaign job specs carry no seed, so
 * spmv and pagerank use their factories' default seeds.
 */

#include <filesystem>

#include "bench.hpp"
#include "service/campaign_runner.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace photon;
using service::JobSpec;

/** Today's interval errors are 75-97%; a twin predicting under 2% of
 *  the detailed cycles fails. */
constexpr double kIntervalBoundPct = 98.0;

class DseScenario : public Scenario
{
  public:
    explicit DseScenario(const Options &opts)
        : artifactPath_(opts.runDir + "/dse-artifact.bin")
    {
        for (const char *gpu : {"r9nano", "mi100"}) {
            for (const char *w : {"spmv", "pagerank", "fir", "aes"}) {
                JobSpec s;
                s.workload = w;
                s.mode = "full";
                s.gpu = gpu;
                detailed_.push_back(s);
                s.backend = "interval";
                interval_.push_back(s);
            }
        }
    }

    void
    setUp(Report &) override
    {
        // Fresh set-ups of every job: after the timed rounds the
        // artifact's traces are replayed onto them and checked against
        // the host references.
        for (const JobSpec &s : detailed_)
            references_.push_back(prepareJob(s));
    }

    RoundTimes
    round(bool traced, Report &report) override
    {
        service::CampaignOptions co;
        co.workers = 2;

        Clock::time_point t0 = Clock::now();
        service::CampaignResult det;
        {
            Scope s("service.campaign");
            det = service::runCampaign(detailed_, co);
        }
        service::LoadStatus saved;
        {
            Scope s("service.artifact_save");
            saved = service::saveArtifact(det.finalStore, artifactPath_);
        }
        double detailed_s = secondsSince(t0);
        report.expect(saved.ok, "artifact saved: " + saved.error);
        det.finalStore = {}; // on disk now; the interval pass loads it

        phaseDone();
        Clock::time_point t1 = Clock::now();
        service::Artifact loaded;
        service::LoadStatus status;
        {
            Scope s("service.artifact_load");
            status = service::loadArtifact(artifactPath_, loaded);
        }
        service::CampaignResult fast;
        {
            Scope s("service.campaign");
            fast = service::runCampaign(interval_, co, std::move(loaded));
        }
        double fast_s = secondsSince(t1);
        report.expect(status.ok, "artifact loaded: " + status.error);
        report.attempted += detailed_.size() + interval_.size();

        tracer().count("service.steal_ops",
                       static_cast<double>(det.stealOps + fast.stealOps));
        std::error_code ec;
        auto bytes = std::filesystem::file_size(artifactPath_, ec);
        tracer().count("service.artifact_bytes",
                       ec ? 0.0 : static_cast<double>(bytes));

        double err_sum = 0.0;
        for (std::size_t i = 0; i < detailed_.size(); ++i) {
            const service::JobResult &d = det.jobs[i];
            const service::JobResult &f = fast.jobs[i];
            const std::string label = interval_[i].label();
            report.expect(twinsAgree(d, f),
                          label + ": same instructions as the detailed "
                                  "twin, every launch replayed");
            report.expect(checkErrorBound(f.cycles, d.cycles,
                                          kIntervalBoundPct),
                          label + ": cycle error " +
                              std::to_string(errorPct(f.cycles, d.cycles)) +
                              "% within bound");
            err_sum += errorPct(f.cycles, d.cycles);
        }
        if (firstDet_.empty()) {
            firstDet_ = det.jobs;
            firstFast_ = fast.jobs;
        } else {
            for (std::size_t i = 0; i < detailed_.size(); ++i) {
                report.expect(sameJob(det.jobs[i], firstDet_[i]) &&
                                  sameJob(fast.jobs[i], firstFast_[i]),
                              detailed_[i].label() +
                                  ": same cycles every round");
            }
        }
        if (traced)
            replayThroughLayers(det, fast, report);
        return {fast_s, detailed_s,
                err_sum / static_cast<double>(detailed_.size()), true};
    }

    void
    finish(Report &report) override
    {
        service::Artifact artifact;
        service::LoadStatus status =
            service::loadArtifact(artifactPath_, artifact);
        report.expect(status.ok, "artifact reloads: " + status.error);
        for (PreparedJob &job : references_) {
            std::string why;
            report.expect(checkArtifactOutputs(job, artifact, &why), why);
        }
        // Trace replay vs re-emulation on the cheapest detailed job.
        std::size_t cheapest = 0;
        for (std::size_t i = 0; i < detailed_.size(); ++i) {
            if (firstDet_[i].wallSeconds < firstDet_[cheapest].wallSeconds)
                cheapest = i;
        }
        PreparedJob job = prepareJob(detailed_[cheapest]);
        job.platform->setTraceReuse(false);
        JobOutcome emulated = simulateJob(job, false);
        ++report.attempted;
        const service::JobResult &ref = firstDet_[cheapest];
        report.expect(emulated.cycles == ref.cycles &&
                          emulated.insts == ref.insts,
                      detailed_[cheapest].label() +
                          ": --no-trace-reuse cycles equal trace replay");
    }

  private:
    static bool
    sameJob(const service::JobResult &a, const service::JobResult &b)
    {
        return a.cycles == b.cycles && a.insts == b.insts &&
               a.kernels == b.kernels;
    }

    /** The same jobs again, one at a time, through each layer's own
     *  calls: detailed twins capture into a shared trace store, the
     *  interval twins replay from it. Each must reproduce its campaign
     *  result. */
    void
    replayThroughLayers(const service::CampaignResult &det,
                        const service::CampaignResult &fast,
                        Report &report)
    {
        func::TraceStore traces;
        auto run = [&](const JobSpec &spec,
                       const service::JobResult &campaign) {
            Scope s("job:" + spec.label());
            PreparedJob job = prepareJob(spec, &traces);
            JobOutcome out = simulateJob(job, true);
            if (spec.backend == "detailed")
                countMemStats(*job.platform);
            {
                Scope c("workloads.check");
                report.expect(checkOutputs(job),
                              spec.label() +
                                  ": outputs match host reference");
            }
            report.expect(out.cycles == campaign.cycles &&
                              out.insts == campaign.insts,
                          spec.label() +
                              ": layer calls reproduce the campaign");
        };
        for (std::size_t i = 0; i < detailed_.size(); ++i)
            run(detailed_[i], det.jobs[i]);
        for (std::size_t i = 0; i < interval_.size(); ++i)
            run(interval_[i], fast.jobs[i]);
    }

    std::string artifactPath_;
    std::vector<JobSpec> detailed_;
    std::vector<JobSpec> interval_;
    std::vector<PreparedJob> references_;
    std::vector<service::JobResult> firstDet_;
    std::vector<service::JobResult> firstFast_;
};

} // namespace

std::unique_ptr<Scenario>
makeDseScenario(const Options &opts)
{
    return std::make_unique<DseScenario>(opts);
}

} // namespace perfbench
