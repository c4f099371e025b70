#include "bench.hpp"

#include "support/stats.hpp"

#include <fstream>
#include <string>

#include <malloc.h>
#include <sys/resource.h>

namespace perfbench {

void report::check(bool ok, const std::string& what)
{
    if (!ok) {
        failures_.push_back(what);
        ++failed_;
    }
}

double pct(const std::vector<double>& sample, double p)
{
    return mwl::percentile(sample, p);
}

void reset_peak_rss()
{
    ::malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5"; // resets VmHWM
}

double peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0; // kB
        }
    }
    rusage usage = {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace perfbench
