/**
 * @file
 * In-memory span recorder for the traced benchmark run. A span is
 * (name, start, end, parent); spans nest per thread as workload (one
 * root span per round) -> job -> launch -> layer call. Counters record
 * work done at the same boundaries. Nothing is written until the run
 * ends.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);

struct Span
{
    std::string name;
    double start = 0.0; ///< seconds since the recorder's origin
    double end = 0.0;
    int parent = -1; ///< index into the span list, -1 for a root
    int round = 0;
};

class Tracer
{
  public:
    /** Turn recording on; spans and counters are no-ops until then. */
    void enable() { on_ = true; }
    bool on() const { return on_; }

    /** Spans and counters recorded from now on belong to @p round. */
    void setRound(int round) { round_ = round; }
    int round() const { return round_; }

    int open(const std::string &name);
    void close(int id);
    /** Innermost open span of the calling thread, -1 when none. */
    int current() const;
    /** Make @p parent the calling thread's innermost span (worker
     *  threads adopt the span that started them); undo with
     *  release(). */
    void adopt(int parent);
    void release();
    void count(const std::string &name, double value);

    /** Sum of the durations of spans named @p name in @p round. */
    double total(const std::string &name, int round) const;
    /** Counter @p name accumulated in @p round (0 when never set). */
    double counter(const std::string &name, int round) const;
    /** Share of @p round's root span covered by the union of its
     *  layer spans (names containing a '.'). */
    double layerCoverage(int round) const;

    /** Write every span and counter as JSON to @p path. */
    bool write(const std::string &path) const;

  private:
    bool on_ = false;
    int round_ = 0;
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::map<int, std::map<std::string, double>> counters_;
};

/** The process-wide recorder. */
Tracer &tracer();

/** RAII span; records nothing unless the tracer is on. */
class Scope
{
  public:
    explicit Scope(const std::string &name)
        : id_(tracer().on() ? tracer().open(name) : -1)
    {}
    ~Scope()
    {
        if (id_ >= 0)
            tracer().close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
