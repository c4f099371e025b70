#include "trace.hpp"

#include <chrono>
#include <fstream>

namespace perfbench {

namespace {

std::int64_t now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Open spans of this thread, innermost last.
thread_local std::vector<std::int64_t> open_spans;

std::uint32_t thread_number()
{
    static std::mutex mutex;
    static std::uint32_t next = 0;
    thread_local std::uint32_t mine = [] {
        const std::lock_guard<std::mutex> lock(mutex);
        return next++;
    }();
    return mine;
}

} // namespace

std::int64_t tracer::begin(const char* name, const char* layer,
                           std::uint64_t request)
{
    span s;
    s.name = name;
    s.layer = layer;
    s.parent = open_spans.empty() ? -1 : open_spans.back();
    s.request = request;
    s.thread = thread_number();
    std::int64_t index = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        index = static_cast<std::int64_t>(spans_.size());
        s.start_ns = now_ns();
        spans_.push_back(s);
    }
    open_spans.push_back(index);
    return index;
}

void tracer::end(std::int64_t index)
{
    const std::int64_t t = now_ns();
    if (!open_spans.empty() && open_spans.back() == index) {
        open_spans.pop_back();
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = t;
}

std::size_t tracer::size() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::vector<double> tracer::self_ns() const
{
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        self[i] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
        if (spans_[i].parent >= 0) {
            self[static_cast<std::size_t>(spans_[i].parent)] -=
                static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
        }
    }
    return self;
}

std::map<std::string, double> tracer::self_ms_by_name() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<double> self = self_ns();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        out[spans_[i].name] += self[i] / 1e6;
    }
    return out;
}

std::map<std::string, double> tracer::self_ms_by_layer() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<double> self = self_ns();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        out[spans_[i].layer] += self[i] / 1e6;
    }
    return out;
}

std::size_t tracer::count(const std::string& name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const span& s : spans_) {
        n += name == s.name ? 1 : 0;
    }
    return n;
}

double tracer::total_ms(const std::string& name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    double ns = 0.0;
    for (const span& s : spans_) {
        if (name == s.name) {
            ns += static_cast<double>(s.end_ns - s.start_ns);
        }
    }
    return ns / 1e6;
}

void tracer::write(const std::filesystem::path& file) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(file);
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const span& s : spans_) {
        out << "{\"name\":\"" << s.name << "\",\"layer\":\"" << s.layer
            << "\",\"start_ns\":" << s.start_ns - origin
            << ",\"end_ns\":" << s.end_ns - origin
            << ",\"parent\":" << s.parent << ",\"request\":" << s.request
            << ",\"thread\":" << s.thread << "}\n";
    }
}

} // namespace perfbench
