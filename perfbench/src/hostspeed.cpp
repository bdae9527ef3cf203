/**
 * @file
 * Host-speed probe: a fixed computation that calls nothing in the
 * simulator, timed after set-up, between the two timed phases of every
 * round and after it, so that the driver can state host times at a
 * reference host speed.
 *
 * The shared host changes speed by up to 2x over minutes while the
 * process's CPU time stays equal to its wall time, so raw wall times of
 * the same code differ by more than any useful bound between two sets of
 * runs. Of the probes tried (an L1-resident xorshift chain, random
 * read-modify-writes over 2 MiB and 32 MiB tables, a hash map, a sort
 * and a bytecode interpreter), the sort and the interpreter followed the
 * simulator's round times best: over 43 dnn-resnet18 rounds their
 * log-times correlated 0.76-0.85 with the rounds' at a slope near 1, and
 * dividing by them about halved the rounds' spread.
 */

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <span>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

/** Pages of its own for a probe's data: unmapped when done, so the
 *  probe leaves no heap behind to raise the simulating process's peak
 *  memory. */
template <typename T>
class Pages
{
  public:
    explicit Pages(std::size_t n)
        : n_(n), p_(mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0))
    {
        if (p_ == MAP_FAILED)
            throw std::bad_alloc();
    }
    ~Pages() { munmap(p_, n_ * sizeof(T)); }
    Pages(const Pages &) = delete;
    Pages &operator=(const Pages &) = delete;
    std::span<T> view() { return {static_cast<T *>(p_), n_}; }

  private:
    std::size_t n_;
    void *p_;
};

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/** Sort 2^18 pseudo-random words (branchy, streaming). */
std::uint64_t
sortWork()
{
    Pages<std::uint32_t> pages(1u << 18);
    std::span<std::uint32_t> v = pages.view();
    std::uint64_t x = 777;
    for (std::uint32_t &e : v)
        e = static_cast<std::uint32_t>(xorshift(x));
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** A switch interpreter over random bytecode (indirect branches). */
std::uint64_t
interpWork()
{
    Pages<std::uint8_t> pages(1u << 16);
    std::span<std::uint8_t> code = pages.view();
    std::uint64_t x = 99;
    for (std::uint8_t &c : code)
        c = static_cast<std::uint8_t>(xorshift(x) & 15);
    std::uint64_t r[4] = {1, 2, 3, 4};
    for (int rep = 0; rep < 40; ++rep) {
        for (std::uint8_t op : code) {
            switch (op) {
            case 0: r[0] += r[1]; break;
            case 1: r[1] ^= r[2] << 1; break;
            case 2: r[2] = r[3] * 3 + 1; break;
            case 3: r[3] -= r[0]; break;
            case 4: r[1] += r[0] & 1; break;
            case 5: r[0] = r[0] >> 1 | r[2]; break;
            case 6: r[2] += r[0] & 7; break;
            case 7: r[3] ^= r[1]; break;
            case 8: r[0] *= 5; break;
            case 9: r[1] += 11; break;
            case 10: if (r[2] > r[3]) --r[0]; break;
            case 11: r[3] = r[2] + r[1]; break;
            case 12: r[1] = ~r[1]; break;
            case 13: r[2] ^= 0x55; break;
            case 14: r[0] += r[3] >> 2; break;
            default: ++r[3]; break;
            }
        }
    }
    return r[0] ^ r[1] ^ r[2] ^ r[3];
}

} // namespace

double
hostProbeSeconds()
{
    // Median of five passes, so a burst inside one or two is dropped.
    std::vector<double> passes;
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 5; ++i) {
        Clock::time_point t0 = Clock::now();
        sink = sink + sortWork() + interpWork();
        passes.push_back(secondsSince(t0));
    }
    return median(passes);
}

} // namespace perfbench
