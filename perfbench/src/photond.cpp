/**
 * @file
 * photond-stream: a `photon_sim serve` daemon with two resident workers
 * and a checkpoint store, fed by two closed-loop client connections.
 * A round starts a fresh daemon, sends one full-detailed request per
 * spec, then a longer stream of Photon requests over the same specs
 * (each repeated, in an order drawn from the seed), and shuts the
 * daemon down. The specs use distinct workloads, so no request can hit
 * another spec's kernel records: every Photon response must equal a
 * fresh in-process Photon run of its spec.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "serve/client.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace photon;
using service::JobSpec;

constexpr std::uint32_t kRepeats = 32;  ///< Photon requests per spec
constexpr std::uint32_t kClients = 2;   ///< closed-loop connections
constexpr double kPhotonBoundPct = 5.0; ///< today: at most 3.28% (sc)
constexpr int kPings = 5;

/** A photon_sim serve child process; stopped and reaped on destruction. */
class Daemon
{
  public:
    Daemon(const Options &opts, const std::string &socket,
           const std::string &store)
        : socket_(socket)
    {
        std::filesystem::remove(socket);
        std::filesystem::remove(store);
        std::string log = opts.runDir + "/photond.log";
        std::vector<std::string> args = {
            opts.photonSim, "serve",          "--socket",
            socket,         "--store",        store,
            "--serve-workers", "2",           "--checkpoint-every",
            "8",            "--quiet"};
        pid_ = fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                dup2(fd, STDOUT_FILENO);
                dup2(fd, STDERR_FILENO);
                close(fd);
            }
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            execv(argv[0], argv.data());
            _exit(127);
        }
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    serve::ClientResult
    request(serve::Op op, const std::string &id, const JobSpec &spec = {})
    {
        serve::Request req;
        req.op = op;
        req.id = id;
        req.spec = spec;
        return serve::requestOverSocket(socket_, req, 120.0);
    }

    /** Ping until the daemon answers (false if it exits or times out). */
    bool
    waitReady(double timeout_s)
    {
        Clock::time_point t0 = Clock::now();
        while (secondsSince(t0) < timeout_s) {
            if (request(serve::Op::Ping, "ready").ok)
                return true;
            if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                return false;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return false;
    }

    /** Graceful drain; true when the daemon exits 0 within the limit. */
    bool
    shutdown()
    {
        request(serve::Op::Shutdown, "shutdown");
        Clock::time_point t0 = Clock::now();
        while (secondsSince(t0) < 60.0) {
            int st = 0;
            if (waitpid(pid_, &st, WNOHANG) == pid_) {
                pid_ = -1;
                return WIFEXITED(st) && WEXITSTATUS(st) == 0;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return false;
    }

    pid_t pid() const { return pid_; }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

struct Answer
{
    serve::ServeResult result; ///< ok=false on a transport failure
    double ms = 0.0;           ///< client-side round trip

    JobOutcome
    outcome() const
    {
        JobOutcome o;
        o.cycles = result.cycles;
        o.insts = result.insts;
        return o;
    }
};

class PhotondScenario : public Scenario
{
  public:
    explicit PhotondScenario(const Options &opts)
        : opts_(opts), socket_(opts.runDir + "/photond.sock"),
          store_(opts.runDir + "/photond-store.bin")
    {
        const std::pair<const char *, std::uint32_t> specs[] = {
            {"relu", 65536}, {"sc", 16384}, {"pagerank", 0},
            {"mm", 256},     {"fir", 1024}};
        for (auto [w, size] : specs) {
            JobSpec s;
            s.workload = w;
            s.size = size;
            s.mode = "full";
            full_.push_back(s);
            s.mode = "photon";
            photon_.push_back(s);
        }
        for (std::uint32_t r = 0; r < kRepeats; ++r) {
            for (std::size_t i = 0; i < photon_.size(); ++i)
                stream_.push_back(i);
        }
        // Fisher-Yates with the engine's raw output, so the order is
        // the same on every standard library.
        std::mt19937_64 rng(opts.seed);
        for (std::size_t i = stream_.size() - 1; i > 0; --i)
            std::swap(stream_[i], stream_[rng() % (i + 1)]);
    }

    void
    setUp(Report &report) override
    {
        daemon_.emplace(opts_, socket_, store_);
        report.expect(daemon_->waitReady(30.0), "photond starts");
        refs_ = prepareReferences();
    }

    RoundTimes
    round(bool traced, Report &report) override
    {
        if (!daemon_) {
            daemon_.emplace(opts_, socket_, store_);
            report.expect(daemon_->waitReady(30.0), "photond starts");
        }
        Daemon &d = *daemon_;
        Tracer &t = tracer(); // serve.* figures are traced-round counters

        std::vector<double> pings;
        for (int i = 0; i < kPings; ++i) {
            Scope s("serve.ping");
            Clock::time_point t0 = Clock::now();
            bool ok = d.request(serve::Op::Ping, "ping").ok;
            pings.push_back(1e3 * secondsSince(t0));
            report.expect(ok, "ping answered");
        }
        t.count("serve.ping_ms", median(pings));

        std::vector<std::size_t> all(full_.size());
        for (std::size_t i = 0; i < all.size(); ++i)
            all[i] = i;
        Clock::time_point t0 = Clock::now();
        std::vector<Answer> detailed = feed(d, full_, all, report);
        double detailed_s = secondsSince(t0);
        phaseDone();
        Clock::time_point t1 = Clock::now();
        std::vector<Answer> fast = feed(d, photon_, stream_, report);
        double fast_s = secondsSince(t1);

        serve::ClientResult st;
        {
            Scope s("serve.status");
            st = d.request(serve::Op::Status, "status");
        }
        report.expect(st.ok && st.response.hasStatus, "status answered");
        const serve::StoreStats &ss = st.response.status.store;
        double lookups = static_cast<double>(ss.cacheHits + ss.cacheMisses);
        t.count("serve.dedup_collapsed",
                static_cast<double>(ss.dedupCollapsed));
        t.count("serve.cache_hit_rate",
                lookups > 0 ? ss.cacheHits / lookups : 0.0);
        t.count("serve.checkpoints", static_cast<double>(ss.checkpoints));
        rss_.push_back(perfbench::peakRssMb(std::to_string(d.pid())));
        {
            Scope s("serve.shutdown");
            report.expect(d.shutdown(), "photond drains and exits 0");
        }
        daemon_.reset();
        std::error_code ec;
        auto bytes = std::filesystem::file_size(store_, ec);
        t.count("serve.store_bytes", ec ? 0.0 : static_cast<double>(bytes));

        std::vector<double> lat;
        for (const Answer &a : fast)
            lat.push_back(a.ms);
        std::size_t q = lat.size() / 4;
        std::vector<double> head(lat.begin(), lat.begin() + q);
        std::vector<double> tail(lat.end() - q, lat.end());
        t.count("serve.request_p50_ms", median(lat));
        t.count("serve.request_p90_ms", quantile(lat, 0.9));
        t.count("serve.latency_growth", median(tail) / median(head));

        // Responses: one answer per spec, equal across repeats, within
        // the error bound, and equal to the first round's.
        std::vector<Answer> leader(photon_.size());
        std::vector<bool> seen(photon_.size(), false);
        for (std::size_t k = 0; k < stream_.size(); ++k) {
            std::size_t i = stream_[k];
            if (!seen[i]) {
                leader[i] = fast[k];
                seen[i] = true;
            }
            const serve::ServeResult &r = fast[k].result;
            report.expect(responseMatches(r, leader[i].outcome()),
                          photon_[i].label() + ": " +
                              (r.dedupCollapsed ? "dedup-collapsed"
                               : r.cacheHit     ? "cache-served"
                                                : "repeated") +
                              " response equals its leader's");
        }
        double err_sum = 0.0;
        for (std::size_t i = 0; i < photon_.size(); ++i) {
            Cycle pc = leader[i].result.cycles;
            Cycle dc = detailed[i].result.cycles;
            double e = errorPct(pc, dc);
            report.expect(checkErrorBound(pc, dc, kPhotonBoundPct),
                          photon_[i].label() + ": cycle error " +
                              std::to_string(e) + "% within bound");
            err_sum += e;
        }
        if (firstFast_.empty()) {
            firstFast_ = leader;
            firstDetailed_ = detailed;
        } else {
            for (std::size_t i = 0; i < photon_.size(); ++i) {
                report.expect(
                    responseMatches(leader[i].result,
                                    firstFast_[i].outcome()) &&
                        responseMatches(detailed[i].result,
                                        firstDetailed_[i].outcome()),
                    photon_[i].label() + ": same cycles every round");
            }
        }
        if (traced) {
            // In-process Platform runs of the same specs (driver layer
            // spans), compared with this round's responses.
            std::vector<PreparedJob> refs = prepareReferences();
            compareReferences(refs, leader, detailed, report);
        }
        return {fast_s, detailed_s,
                err_sum / static_cast<double>(photon_.size()), true};
    }

    void
    finish(Report &report) override
    {
        compareReferences(refs_, firstFast_, firstDetailed_, report);
    }

    /** Median of the round daemons' VmHWM (each round's daemon is
     *  fresh; its peak depends on how its two workers' store copies and
     *  checkpoints happen to overlap). */
    double peakRssMb() const override { return median(rss_); }

  private:
    /** Send @p order's specs over kClients closed-loop connections. */
    std::vector<Answer>
    feed(Daemon &d, const std::vector<JobSpec> &specs,
         const std::vector<std::size_t> &order, Report &report)
    {
        std::vector<Answer> answers(order.size());
        std::atomic<std::size_t> next{0};
        const int parent = tracer().on() ? tracer().current() : -1;
        auto client = [&] {
            if (tracer().on())
                tracer().adopt(parent);
            for (std::size_t k; (k = next++) < order.size();) {
                Scope s("serve.request");
                Clock::time_point t0 = Clock::now();
                serve::ClientResult r =
                    d.request(serve::Op::Submit, std::to_string(k),
                              specs[order[k]]);
                Answer &a = answers[k];
                a.ms = 1e3 * secondsSince(t0);
                if (r.ok && r.response.ok && r.response.hasResult)
                    a.result = r.response.result;
            }
            if (tracer().on())
                tracer().release();
        };
        std::vector<std::thread> clients;
        for (std::uint32_t c = 0; c < kClients; ++c)
            clients.emplace_back(client);
        for (std::thread &t : clients)
            t.join();
        for (std::size_t k = 0; k < order.size(); ++k) {
            ++report.attempted;
            if (!answers[k].result.ok)
                ++report.failed;
        }
        return answers;
    }

    /** In-process runs of every spec: Photon first, then full-detailed
     *  with trace reuse off (emulation). */
    std::vector<PreparedJob>
    prepareReferences() const
    {
        std::vector<PreparedJob> refs;
        for (const JobSpec &s : photon_)
            refs.push_back(prepareJob(s));
        for (const JobSpec &s : full_) {
            refs.push_back(prepareJob(s));
            refs.back().platform->setTraceReuse(false);
        }
        return refs;
    }

    /** Simulate prepareReferences()' jobs and compare each with the
     *  daemon's answer for its spec. */
    void
    compareReferences(std::vector<PreparedJob> &refs,
                      const std::vector<Answer> &fast,
                      const std::vector<Answer> &detailed, Report &report)
    {
        for (std::size_t j = 0; j < refs.size(); ++j) {
            Scope s("job:" + refs[j].spec.label());
            JobOutcome out = simulateJob(refs[j], false);
            ++report.attempted;
            bool is_full = j >= photon_.size();
            const Answer &a = is_full ? detailed[j - photon_.size()]
                                      : fast[j];
            report.expect(responseMatches(a.result, out),
                          refs[j].spec.label() +
                              ": photond response equals an in-process "
                              "Platform run" +
                              (is_full ? " (emulated, no trace reuse)"
                                       : ""));
            if (is_full) {
                countMemStats(*refs[j].platform);
                Scope c("workloads.check");
                report.expect(checkOutputs(refs[j]),
                              refs[j].spec.label() +
                                  ": outputs match host reference");
            }
        }
    }

    Options opts_;
    std::string socket_;
    std::string store_;
    std::vector<JobSpec> full_;
    std::vector<JobSpec> photon_;
    std::vector<std::size_t> stream_;
    std::optional<Daemon> daemon_;
    std::vector<PreparedJob> refs_;
    std::vector<Answer> firstFast_;
    std::vector<Answer> firstDetailed_;
    std::vector<double> rss_;
};

} // namespace

std::unique_ptr<Scenario>
makePhotondScenario(const Options &opts)
{
    return std::make_unique<PhotondScenario>(opts);
}

} // namespace perfbench
