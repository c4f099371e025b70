// In-memory span recorder for traced benchmark runs.
//
// A span is one call into a layer of the library, timed from the outside:
// (name, layer, start, end, parent span, request id, thread). The parent is
// the innermost span open on the same thread when the span began, so nested
// scopes form a tree per thread. Spans stay in memory while the workload
// runs and are written once, at exit.
//
// A layer's self time is the sum over its spans of the span's duration
// minus the durations of its child spans; children always nest inside
// their parent on one thread, so the subtraction never double-counts.

#ifndef MWL_PERFBENCH_TRACE_HPP
#define MWL_PERFBENCH_TRACE_HPP

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Layers, named after the library's modules.
inline const std::vector<std::string> layers = {
    "wcg",        "sched",    "bind",  "core",      "engine", "io",
    "campaign",   "serve",    "wordlength", "tgff", "scenarios", "dfg"};

class tracer {
public:
    struct span {
        const char* name = "";
        const char* layer = "";
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::int64_t parent = -1; ///< index of the enclosing span, -1 = root
        std::uint64_t request = 0;
        std::uint32_t thread = 0;
    };

    /// Open a span on the calling thread; returns its index. `name` and
    /// `layer` must be string literals (stored as pointers).
    std::int64_t begin(const char* name, const char* layer,
                       std::uint64_t request = 0);
    void end(std::int64_t index);

    [[nodiscard]] std::size_t size() const;

    /// Self time (ms) summed per span name, and per layer.
    [[nodiscard]] std::map<std::string, double> self_ms_by_name() const;
    [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
    /// Number of spans with this name.
    [[nodiscard]] std::size_t count(const std::string& name) const;
    /// Total (not self) duration in ms of spans with this name.
    [[nodiscard]] double total_ms(const std::string& name) const;

    /// Write every span as one JSON object per line.
    void write(const std::filesystem::path& file) const;

private:
    [[nodiscard]] std::vector<double> self_ns() const;

    mutable std::mutex mutex_;
    std::vector<span> spans_;
};

/// RAII span; a null tracer makes it a no-op.
class scope {
public:
    scope(tracer* t, const char* name, const char* layer,
          std::uint64_t request = 0)
        : tracer_(t), index_(t ? t->begin(name, layer, request) : -1)
    {
    }
    ~scope()
    {
        if (tracer_ != nullptr) {
            tracer_->end(index_);
        }
    }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

private:
    tracer* tracer_;
    std::int64_t index_;
};

} // namespace perfbench

#endif // MWL_PERFBENCH_TRACE_HPP
