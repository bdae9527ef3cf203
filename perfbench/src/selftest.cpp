/**
 * @file
 * `--selftest`: every correctness check the workloads use is fed one
 * clean output, which it must accept, and one deliberately corrupted
 * output, which it must reject. Small jobs on the `tiny` GPU keep it to
 * a few seconds.
 */

#include <cstdio>

#include "bench.hpp"
#include "serve/protocol.hpp"
#include "service/campaign_runner.hpp"

namespace perfbench {

namespace {

using namespace photon;
using service::JobSpec;

JobSpec
tinySpec(const std::string &workload, std::uint32_t size,
         const std::string &mode, const std::string &backend = "detailed")
{
    JobSpec s;
    s.workload = workload;
    s.size = size;
    s.mode = mode;
    s.gpu = "tiny";
    s.backend = backend;
    return s;
}

struct Tally
{
    int failures = 0;

    void
    expect(bool clean_accepted, bool corrupt_rejected, const char *check,
           const char *corruption)
    {
        bool ok = clean_accepted && corrupt_rejected;
        std::printf("%-4s %-28s %s%s\n", ok ? "ok" : "FAIL", check,
                    corruption,
                    clean_accepted ? "" : " (clean output rejected)");
        failures += ok ? 0 : 1;
    }
};

} // namespace

int
runSelfTest()
{
    Tally t;

    {
        PreparedJob job = prepareJob(tinySpec("relu", 64, "full"));
        simulateJob(job, false);
        bool clean = checkOutputs(job);
        bool flipped = corruptOutputWord(job);
        t.expect(clean, flipped && !checkOutputs(job), "checkOutputs",
                 "one output word flipped");
    }

    t.expect(checkErrorBound(1040, 1000, 5.0),
             !checkErrorBound(1060, 1000, 5.0), "checkErrorBound",
             "fast cycles 6% off with a 5% bound");

    PreparedJob ref_job = prepareJob(tinySpec("fir", 64, "full"));
    JobOutcome ref = simulateJob(ref_job, false);
    {
        JobOutcome changed = ref;
        changed.launches.back().cycles += 1;
        t.expect(sameOutcome(ref, ref), !sameOutcome(ref, changed),
                 "sameOutcome", "one launch's cycles changed by one");
    }

    {
        serve::ServerOptions so;
        so.workers = 1;
        serve::SimServer server(so);
        serve::Response resp;
        resp.id = "selftest";
        resp.ok = true;
        resp.hasResult = true;
        resp.result = server.runSync(tinySpec("fir", 64, "full"));
        serve::Response wire;
        bool decoded =
            serve::decodeResponse(serve::encodeResponse(resp), wire);
        serve::ServeResult changed = wire.result;
        changed.cycles += 1;
        t.expect(decoded && responseMatches(wire.result, ref),
                 !responseMatches(changed, ref), "responseMatches",
                 "daemon response cycles changed by one");
    }

    std::vector<JobSpec> det = {tinySpec("fir", 64, "full"),
                                tinySpec("relu", 64, "full")};
    std::vector<JobSpec> intv = {
        tinySpec("fir", 64, "full", "interval"),
        tinySpec("relu", 64, "full", "interval")};
    service::CampaignOptions co;
    service::CampaignResult d = service::runCampaign(det, co);
    service::CampaignResult f = service::runCampaign(intv, co, d.finalStore);
    {
        service::JobResult fewer = f.jobs[0];
        fewer.insts -= 1;
        service::JobResult captured = f.jobs[0];
        captured.traceCaptures = 1;
        t.expect(twinsAgree(d.jobs[0], f.jobs[0]),
                 !twinsAgree(d.jobs[0], fewer) &&
                     !twinsAgree(d.jobs[0], captured),
                 "twinsAgree", "twin instructions off by one / recapture");
    }

    {
        // The artifact holds one trace per job; whichever is dropped,
        // one of the two jobs must miss it.
        std::string why;
        PreparedJob clean_a = prepareJob(det[0]);
        PreparedJob clean_b = prepareJob(det[1]);
        bool clean = checkArtifactOutputs(clean_a, d.finalStore, &why) &&
                     checkArtifactOutputs(clean_b, d.finalStore, &why);
        service::Artifact dropped = d.finalStore;
        bool had = !dropped.traces.empty();
        if (had)
            dropped.traces.erase(dropped.traces.begin());
        PreparedJob a = prepareJob(det[0]);
        PreparedJob b = prepareJob(det[1]);
        bool rejected = had && (!checkArtifactOutputs(a, dropped, &why) ||
                                !checkArtifactOutputs(b, dropped, &why));
        t.expect(clean, rejected, "checkArtifactOutputs",
                 "one trace dropped from the artifact");
    }

    std::printf("selftest: %d check(s) failed to reject corruption\n",
                t.failures);
    return t.failures ? 1 : 0;
}

} // namespace perfbench
