// Shared plumbing of the benchmark driver: the run configuration, the result
// every workload fills in (metrics, attempted / failed counts, output-check
// failures), and small statistics helpers.
//
// A workload measures one user path of the library from outside: it calls
// the public functions of each layer and times those calls. Traced runs
// additionally record spans (trace.hpp) and report per-layer metrics.

#ifndef MWL_PERFBENCH_BENCH_HPP
#define MWL_PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class tracer;

struct config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;   ///< measured window of one run
    bool trace = false;      ///< per-layer (traced) run instead of end-to-end
    bool smoke = false;      ///< tiny inputs, for the self-test
    bool corrupt = false;    ///< self-test: damage one result before checking
    std::size_t jobs = 1;    ///< worker threads (hardware concurrency)
    std::filesystem::path scratch_dir; ///< campaign stores, sockets
};

struct metric {
    double value = 0.0;
    std::string unit;
};

/// What one run reports. A failed output check marks the run incorrect and
/// counts as a failed operation.
class report {
public:
    void set(const std::string& name, double value, const std::string& unit)
    {
        metrics_[name] = metric{value, unit};
    }
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    void fail(std::uint64_t n = 1) { failed_ += n; }
    /// Record an output check; a false `ok` fails the run.
    void check(bool ok, const std::string& what);

    [[nodiscard]] bool correct() const { return failures_.empty(); }
    [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const { return failed_; }
    [[nodiscard]] const std::map<std::string, metric>& metrics() const
    {
        return metrics_;
    }
    [[nodiscard]] const std::vector<std::string>& failures() const
    {
        return failures_;
    }

private:
    std::map<std::string, metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

using clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(clock::time_point start)
{
    return std::chrono::duration<double>(clock::now() - start).count();
}

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
[[nodiscard]] double pct(const std::vector<double>& sample, double p);
[[nodiscard]] inline double median(const std::vector<double>& sample)
{
    return pct(sample, 50.0);
}

/// Peak resident set size, in MiB, since the last reset_peak_rss() (or
/// process start). Workloads report the median over their measured units
/// of work, so one unusually fragmented heap cannot move `peak_rss_mb`.
[[nodiscard]] double peak_rss_mb();
/// Return freed heap to the system and restart the peak at the current RSS.
void reset_peak_rss();

/// Independent 64-bit value derived from (seed, salt) -- splitmix64.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

/// Times repetitions of a workload's set-up: before the measured work at
/// least 5, then more while they have taken under 0.25 s in total (at most
/// 64); after it, as many again. The median is reported as `setup_s`, so
/// neither a slow repetition nor a slow stretch of the run can move it.
class setup_timer {
public:
    /// Another repetition before the measured work?
    [[nodiscard]] bool more() const
    {
        return times_.size() < 5 || (total_ < 0.25 && times_.size() < 64);
    }
    /// Another repetition after it?
    [[nodiscard]] bool more_after()
    {
        head_ = head_ == 0 ? times_.size() : head_;
        return times_.size() < 2 * head_;
    }
    [[nodiscard]] bool first() const { return times_.empty(); }
    void start() { start_ = clock::now(); }
    void stop()
    {
        times_.push_back(seconds_since(start_));
        total_ += times_.back();
    }
    [[nodiscard]] double median_s() const { return median(times_); }

private:
    std::vector<double> times_;
    std::size_t head_ = 0;
    double total_ = 0.0;
    clock::time_point start_;
};

/// Workload entry points. `trace` is null in end-to-end runs.
void run_large_alloc(const config& cfg, report& out, tracer* trace);
void run_serve_mixed(const config& cfg, report& out, tracer* trace);
void run_tune_sweep(const config& cfg, report& out, tracer* trace);

/// Campaign-layer metrics (campaign.*) from one run of the campaign spec
/// `spec_text` on a fresh on-disk result store (campaign_layer.cpp).
void measure_campaign_layer(const config& cfg, const std::string& spec_text,
                            report& out, tracer& trace);

} // namespace perfbench

#endif // MWL_PERFBENCH_BENCH_HPP
