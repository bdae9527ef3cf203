/**
 * @file
 * dnn-resnet18 and mm-512: one Photon-mode job and its full-detailed
 * reference, one after the other in this process. Their inputs are
 * fixed: makeResnet and makeMm take no seed.
 */

#include <optional>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using photon::service::JobSpec;

class InProcessScenario : public Scenario
{
  public:
    InProcessScenario(JobSpec fast, JobSpec detailed, double bound_pct)
        : fastSpec_(std::move(fast)), detSpec_(std::move(detailed)),
          boundPct_(bound_pct)
    {}

    void
    setUp(Report &) override
    {
        fastJob_ = prepareJob(fastSpec_);
        detJob_ = prepareJob(detSpec_);
    }

    RoundTimes
    round(bool traced, Report &report) override
    {
        JobOutcome fast = runJob(fastJob_, fastSpec_, traced, report);
        phaseDone();
        JobOutcome det = runJob(detJob_, detSpec_, traced, report);
        report.expect(checkErrorBound(fast.cycles, det.cycles, boundPct_),
                      fastSpec_.label() + ": cycle error " +
                          std::to_string(errorPct(fast.cycles,
                                                  det.cycles)) +
                          "% within " + std::to_string(boundPct_) + "%");
        if (!refFast_) {
            refFast_ = fast;
            refDet_ = det;
        } else {
            // Later rounds, traced or not, must reproduce the first
            // (untraced) round launch for launch.
            report.expect(sameOutcome(fast, *refFast_),
                          fastSpec_.label() + ": same cycles every round");
            report.expect(sameOutcome(det, *refDet_),
                          detSpec_.label() + ": same cycles every round");
        }
        return {fast.seconds, det.seconds, errorPct(fast.cycles,
                                                    det.cycles)};
    }

    void
    finish(Report &report) override
    {
        // Trace replay vs re-emulation on the detailed reference.
        PreparedJob job = prepareJob(detSpec_);
        job.platform->setTraceReuse(false);
        JobOutcome emulated = simulateJob(job, false);
        ++report.attempted;
        report.expect(sameOutcome(emulated, *refDet_),
                      detSpec_.label() +
                          ": --no-trace-reuse cycles equal trace replay");
    }

  private:
    /** Prepare (unless set-up already did), simulate and check one job. */
    JobOutcome
    runJob(std::optional<PreparedJob> &ready, const JobSpec &spec,
           bool traced, Report &report)
    {
        Scope s("job:" + spec.label());
        PreparedJob job = ready ? std::move(*ready) : prepareJob(spec);
        ready.reset();
        JobOutcome out = simulateJob(job, traced);
        ++report.attempted;
        if (spec.mode == "full") {
            countMemStats(*job.platform);
            Scope c("workloads.check");
            report.expect(checkOutputs(job),
                          spec.label() + ": outputs match host reference");
        }
        return out;
    }

    JobSpec fastSpec_;
    JobSpec detSpec_;
    double boundPct_;
    std::optional<PreparedJob> fastJob_;
    std::optional<PreparedJob> detJob_;
    std::optional<JobOutcome> refFast_;
    std::optional<JobOutcome> refDet_;
};

JobSpec
spec(const std::string &workload, std::uint32_t size,
     const std::string &mode)
{
    JobSpec s;
    s.workload = workload;
    s.size = size;
    s.mode = mode;
    s.gpu = "r9nano";
    return s;
}

} // namespace

std::unique_ptr<Scenario>
makeInProcessScenario(const Options &opts)
{
    // Bounds sit just above today's errors (resnet18 1.07%, mm 5.42%),
    // so a model change that loses accuracy fails the run.
    if (opts.workload == "dnn-resnet18")
        return std::make_unique<InProcessScenario>(
            spec("resnet18", 0, "photon"), spec("resnet18", 0, "full"),
            2.0);
    if (opts.workload == "mm-512")
        return std::make_unique<InProcessScenario>(
            spec("mm", 512, "photon"), spec("mm", 512, "full"), 6.0);
    return nullptr;
}

} // namespace perfbench
