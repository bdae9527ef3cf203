/**
 * @file
 * Shared pieces of the benchmark driver: the run report, the scenario
 * interface every workload implements, in-process simulation jobs
 * (through driver::Platform, or through each layer's own public calls
 * in the traced run) and the correctness checks. Every check is a
 * plain function of outputs so the self-test can feed it a corrupted
 * one.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "driver/platform.hpp"
#include "serve/server.hpp"
#include "service/artifact_store.hpp"
#include "service/campaign.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

using photon::Cycle;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 20;
    bool trace = false;
    std::string photonSim; ///< photon_sim binary (photond-stream)
    std::string runDir;    ///< scratch directory for run-time files
};

/** Operation counts and check failures of one run. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Record a check outcome; a failure is printed to stderr. */
    void expect(bool ok, const std::string &what);
};

/** Host seconds and cycle error of one round. */
struct RoundTimes
{
    double fastS = 0.0;
    double detailedS = 0.0;
    double errorPct = 0.0;
    bool detailedFirst = false; ///< the detailed phase ran first
};

/**
 * One benchmark workload. setUp() runs once before the first
 * simulation; round() runs the workload's fast and detailed jobs once
 * (untraced: public entry points; traced: spans around each layer's
 * own calls); finish() runs the checks that are too costly per round.
 */
class Scenario
{
  public:
    virtual ~Scenario() = default;
    virtual void setUp(Report &report) = 0;
    virtual RoundTimes round(bool traced, Report &report) = 0;
    virtual void finish(Report &report) = 0;
    /** Peak resident memory of the simulating process, MB. The default
     *  is this process's VmHWM after its first round: later rounds
     *  reuse freed heap unevenly, so a later reading would depend on
     *  how many rounds the run fitted in. */
    virtual double peakRssMb() const { return firstRoundRssMb_; }
    /** Called by the driver after every untraced round. */
    void roundDone();
    /** Run @p hook between the two timed phases of each round from now
     *  on (the driver probes the host's speed there); empty for none. */
    void setBetweenPhases(std::function<void()> hook)
    {
        betweenPhases_ = std::move(hook);
    }

  protected:
    /** round() calls this between its fast and detailed phases. */
    void phaseDone()
    {
        if (betweenPhases_)
            betweenPhases_();
    }

  private:
    double firstRoundRssMb_ = 0.0;
    std::function<void()> betweenPhases_;
};

std::unique_ptr<Scenario> makeInProcessScenario(const Options &opts);
std::unique_ptr<Scenario> makeDseScenario(const Options &opts);
std::unique_ptr<Scenario> makePhotondScenario(const Options &opts);

/** Run every check on a corrupted output; 0 when all reject it. */
int runSelfTest();

/** VmHWM of @p pid ("self" for this process) in MB; 0 when unreadable. */
double peakRssMb(const std::string &pid);

/** Host seconds of the host-speed probe (hostspeed.cpp): a fixed
 *  computation that calls nothing in the simulator. */
double hostProbeSeconds();

/** About one probe pass on the reference host (README "Host speed")
 *  in a quiet period; host-time metrics are stated at that speed. */
constexpr double kReferenceProbeS = 0.05;

double median(std::vector<double> v);
/** q-quantile (0..1) by linear interpolation. */
double quantile(std::vector<double> v, double q);

// ----- In-process jobs (jobs.cpp) -----

/** One simulation job set up and ready to launch. */
struct PreparedJob
{
    photon::service::JobSpec spec;
    std::unique_ptr<photon::driver::Platform> platform;
    photon::workloads::WorkloadPtr work;
};

/** Build the Platform, the workload and its inputs for @p spec; with
 *  @p traces the platform shares that trace store. */
PreparedJob prepareJob(const photon::service::JobSpec &spec,
                       photon::func::TraceStore *traces = nullptr);

struct LaunchOutcome
{
    Cycle cycles = 0;
    std::uint64_t insts = 0;
};

struct JobOutcome
{
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    double seconds = 0.0; ///< host time of the launches
    std::vector<LaunchOutcome> launches;
};

/**
 * Simulate every launch of @p job. With @p layers false the launches go
 * through Platform::launch (spanned as driver.launch when tracing);
 * with @p layers true the benchmark calls the func, isa, sampling and
 * timing entry points itself, mirroring Platform::launch, with one span
 * per call.
 */
JobOutcome simulateJob(PreparedJob &job, bool layers);

/** Add the platform's memory-system counters to the tracer. */
void countMemStats(const photon::driver::Platform &platform);

// ----- Checks -----

/** |fast - detailed| / detailed, in percent. */
double errorPct(Cycle fast, Cycle detailed);

/** Workload::check on a simulated job (host reference). */
bool checkOutputs(PreparedJob &job);

/** Photon/interval cycle error within @p bound_pct of the detailed run. */
bool checkErrorBound(Cycle fast, Cycle detailed, double bound_pct);

/** A photond submit result is ok and carries @p ref's cycles and
 *  instructions. */
bool responseMatches(const photon::serve::ServeResult &r,
                     const JobOutcome &ref);

/** An interval twin issued its detailed twin's instructions and
 *  replayed a stored trace for every launch. */
bool twinsAgree(const photon::service::JobResult &detailed,
                const photon::service::JobResult &interval);

/** Per-launch cycles and instructions identical (determinism across
 *  rounds, traced vs untraced, replay vs emulation). */
bool sameOutcome(const JobOutcome &a, const JobOutcome &b);

/**
 * Rebuild a freshly set-up job's outputs from @p artifact: for each
 * launch, find the trace keyed by the pre-launch memory, apply its
 * store log, then run Workload::check. False (with @p why) when a trace
 * is missing or the outputs are wrong.
 */
bool checkArtifactOutputs(PreparedJob &job,
                          const photon::service::Artifact &artifact,
                          std::string *why);

/** Flip the first word of @p job's memory that differs from a fresh
 *  set-up of the same spec (an output word); false when none does. */
bool corruptOutputWord(PreparedJob &job);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
