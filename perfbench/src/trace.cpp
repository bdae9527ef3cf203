#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

/** Innermost open span of the calling thread (client threads of the
 *  photond workload nest their requests under their own parents). */
thread_local std::vector<int> t_stack;

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

int
Tracer::open(const std::string &name)
{
    double now = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.start = now;
    s.end = now;
    s.parent = t_stack.empty() ? -1 : t_stack.back();
    s.round = round_;
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size()) - 1;
    t_stack.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    double now = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = now;
    if (!t_stack.empty() && t_stack.back() == id)
        t_stack.pop_back();
}

int
Tracer::current() const
{
    return t_stack.empty() ? -1 : t_stack.back();
}

void
Tracer::adopt(int parent)
{
    t_stack.push_back(parent);
}

void
Tracer::release()
{
    if (!t_stack.empty())
        t_stack.pop_back();
}

void
Tracer::count(const std::string &name, double value)
{
    if (!on_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    counters_[round_][name] += value;
}

double
Tracer::total(const std::string &name, int round) const
{
    std::lock_guard<std::mutex> lock(mu_);
    double sum = 0.0;
    for (const Span &s : spans_) {
        if (s.round == round && s.name == name)
            sum += s.end - s.start;
    }
    return sum;
}

double
Tracer::counter(const std::string &name, int round) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto r = counters_.find(round);
    if (r == counters_.end())
        return 0.0;
    auto it = r->second.find(name);
    return it == r->second.end() ? 0.0 : it->second;
}

double
Tracer::layerCoverage(int round) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const Span *root = nullptr;
    std::vector<std::pair<double, double>> layer;
    for (const Span &s : spans_) {
        if (s.round != round)
            continue;
        if (s.parent < 0 && !root)
            root = &s;
        else if (s.name.find('.') != std::string::npos)
            layer.emplace_back(s.start, s.end);
    }
    if (!root || root->end <= root->start)
        return 0.0;
    std::sort(layer.begin(), layer.end());
    double covered = 0.0, reach = root->start;
    for (auto [b, e] : layer) {
        b = std::max(b, reach);
        e = std::min(e, root->end);
        if (e > b) {
            covered += e - b;
            reach = e;
        }
    }
    return covered / (root->end - root->start);
}

bool
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"spans\": [";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n {\"id\": %zu, \"name\": \"", i ? "," : "", i);
        os << buf << s.name;
        std::snprintf(buf, sizeof(buf),
                      "\", \"start\": %.9f, \"end\": %.9f, "
                      "\"parent\": %d, \"round\": %d}",
                      s.start, s.end, s.parent, s.round);
        os << buf;
    }
    os << "\n], \"counters\": {";
    bool first_round = true;
    for (const auto &[round, counters] : counters_) {
        os << (first_round ? "" : ",") << "\n \"" << round << "\": {";
        first_round = false;
        bool first = true;
        for (const auto &[name, value] : counters) {
            std::snprintf(buf, sizeof(buf), "%.17g", value);
            os << (first ? "" : ", ") << '"' << name << "\": " << buf;
            first = false;
        }
        os << '}';
    }
    os << "\n}}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
