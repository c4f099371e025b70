#include "campaign/result_store.hpp"

#include "support/atomic_write.hpp"
#include "support/json.hpp"

#include <cerrno>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

namespace mwl {

namespace {

const char* spec_file = "spec.campaign";
const char* journal_file = "journal.log";
const char* snapshot_file = "snapshot.log";

std::string hex16(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
    return buf;
}

[[noreturn]] void bad_store(const std::string& message)
{
    throw store_format_error(message);
}

/// key=value tokenizer for record payloads. `detail=` swallows the rest
/// of the payload (error messages contain spaces) and must come last.
struct payload_fields {
    explicit payload_fields(const std::string& payload)
    {
        std::size_t pos = 0;
        while (pos < payload.size()) {
            while (pos < payload.size() && payload[pos] == ' ') {
                ++pos;
            }
            const std::size_t eq = payload.find('=', pos);
            if (eq == std::string::npos) {
                bad_store("malformed record field near '" +
                          payload.substr(pos) + "'");
            }
            const std::string key = payload.substr(pos, eq - pos);
            if (key == "detail") {
                fields.emplace_back(key, payload.substr(eq + 1));
                return;
            }
            const std::size_t end =
                std::min(payload.find(' ', eq + 1), payload.size());
            fields.emplace_back(key,
                                payload.substr(eq + 1, end - (eq + 1)));
            pos = end;
        }
    }

    [[nodiscard]] const std::string& get(const char* key) const
    {
        for (const auto& [k, v] : fields) {
            if (k == key) {
                return v;
            }
        }
        bad_store(std::string("record is missing field '") + key + "'");
    }

    std::vector<std::pair<std::string, std::string>> fields;
};

std::uint64_t parse_u64_field(const std::string& text, const char* what)
{
    char* end = nullptr;
    errno = 0;
    const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end == text.c_str() || *end != '\0') {
        bad_store(std::string("bad ") + what + " '" + text + "'");
    }
    return value;
}

int parse_int_field(const std::string& text, const char* what)
{
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(text.c_str(), &end, 10);
    if (errno != 0 || end == text.c_str() || *end != '\0' ||
        value < INT_MIN || value > INT_MAX) {
        bad_store(std::string("bad ") + what + " '" + text + "'");
    }
    return static_cast<int>(value);
}

std::uint64_t parse_hex_field(const std::string& text, const char* what)
{
    char* end = nullptr;
    errno = 0;
    const std::uint64_t value = std::strtoull(text.c_str(), &end, 16);
    if (errno != 0 || end == text.c_str() || *end != '\0') {
        bad_store(std::string("bad ") + what + " '" + text + "'");
    }
    return value;
}

struct header {
    int format_version = 0;
    std::uint64_t fingerprint = 0;
    std::size_t points = 0;
};

header parse_header(const std::string& payload, const std::string& where)
{
    std::istringstream in(payload);
    std::string tag;
    in >> tag;
    if (tag != "campaign-store") {
        bad_store(where + ": first record is not a campaign-store header");
    }
    const payload_fields fields(payload.substr(tag.size()));
    header h;
    h.format_version =
        parse_int_field(fields.get("format_version"), "format_version");
    if (h.format_version != store_format_version) {
        bad_store(where + ": incompatible checkpoint format_version " +
                  std::to_string(h.format_version) + " (this build reads " +
                  std::to_string(store_format_version) + ")");
    }
    h.fingerprint =
        parse_hex_field(fields.get("fingerprint"), "fingerprint");
    h.points = parse_u64_field(fields.get("points"), "points");
    return h;
}

} // namespace

std::string to_payload(const point_result& result)
{
    std::string payload = "point index=" + std::to_string(result.index) +
                          " key=" + result.key +
                          " lambda=" + std::to_string(result.lambda) +
                          " latency=" + std::to_string(result.latency) +
                          " area=" + format_double(result.area);
    if (result.ok()) {
        payload += " status=ok";
    } else {
        payload += " status=error detail=" + result.error;
    }
    return payload;
}

point_result parse_point_payload(const std::string& payload)
{
    std::istringstream in(payload);
    std::string tag;
    in >> tag;
    if (tag != "point") {
        bad_store("record is not a point record: '" + payload + "'");
    }
    const payload_fields fields(payload.substr(tag.size()));
    point_result r;
    r.index = parse_u64_field(fields.get("index"), "index");
    r.key = fields.get("key");
    r.lambda = parse_int_field(fields.get("lambda"), "lambda");
    r.latency = parse_int_field(fields.get("latency"), "latency");
    const std::string& area = fields.get("area");
    char* end = nullptr;
    r.area = std::strtod(area.c_str(), &end);
    if (end == area.c_str() || *end != '\0') {
        bad_store("bad area '" + area + "'");
    }
    const std::string& status = fields.get("status");
    if (status == "error") {
        r.error = fields.get("detail");
        if (r.error.empty()) {
            r.error = "unknown error";
        }
    } else if (status != "ok") {
        bad_store("bad status '" + status + "'");
    }
    return r;
}

std::string result_store::header_payload() const
{
    return std::string("campaign-store format_version=") +
           std::to_string(store_format_version) +
           " fingerprint=" + hex16(fingerprint_) +
           " points=" + std::to_string(total_points_);
}

bool result_store::exists(const std::filesystem::path& dir)
{
    return std::filesystem::exists(dir / spec_file) ||
           std::filesystem::exists(dir / journal_file) ||
           std::filesystem::exists(dir / snapshot_file);
}

std::string result_store::load_spec_text(const std::filesystem::path& dir)
{
    std::string text;
    if (!read_file(dir / spec_file, text)) {
        bad_store(dir.string() + " is not a campaign directory (no " +
                  spec_file + ")");
    }
    return text;
}

result_store result_store::create(const std::filesystem::path& dir,
                                  const std::string& spec_text,
                                  std::uint64_t fingerprint,
                                  std::size_t total_points,
                                  std::size_t checkpoint_every)
{
    require(checkpoint_every >= 1, "checkpoint_every must be >= 1");
    std::filesystem::create_directories(dir);
    if (exists(dir)) {
        bad_store(dir.string() +
                  " already contains a campaign; use --resume");
    }
    result_store store;
    store.dir_ = dir;
    store.fingerprint_ = fingerprint;
    store.total_points_ = total_points;
    store.checkpoint_every_ = checkpoint_every;
    // Spec first (not a counted store write), then the journal header --
    // a crash between the two resumes as an empty campaign.
    atomic_write_file(dir / spec_file, spec_text);
    store.journal_ = std::make_unique<journal_writer>(dir / journal_file);
    store.journal_->append(store.header_payload());
    return store;
}

result_store result_store::open(
    const std::filesystem::path& dir,
    std::optional<std::uint64_t> expected_fingerprint,
    std::size_t checkpoint_every)
{
    require(checkpoint_every >= 1, "checkpoint_every must be >= 1");
    result_store store;
    store.dir_ = dir;
    store.checkpoint_every_ = checkpoint_every;
    if (!exists(dir)) {
        bad_store(dir.string() + " is not a campaign directory");
    }

    bool have_header = false;
    const auto adopt_header = [&](const header& h, const std::string& where) {
        if (expected_fingerprint && h.fingerprint != *expected_fingerprint) {
            bad_store(where + ": checkpoint was built from a different "
                              "spec (fingerprint " +
                      hex16(h.fingerprint) + ", spec expands to " +
                      hex16(*expected_fingerprint) + ")");
        }
        if (have_header && h.fingerprint != store.fingerprint_) {
            bad_store(where + ": snapshot and journal disagree on the "
                              "campaign fingerprint");
        }
        store.fingerprint_ = h.fingerprint;
        store.total_points_ = h.points;
        have_header = true;
    };
    const auto ingest = [&](const std::vector<std::string>& payloads,
                            std::size_t first, std::size_t& counter) {
        for (std::size_t i = first; i < payloads.size(); ++i) {
            point_result r = parse_point_payload(payloads[i]);
            ++counter;
            if (!store.results_.emplace(r.index, std::move(r)).second) {
                ++store.load_stats_.duplicates;
            }
        }
    };

    // Snapshot: atomically replaced, so a torn tail here means something
    // other than our writer touched it -- corruption, not a crash.
    const std::filesystem::path snapshot = dir / snapshot_file;
    if (std::filesystem::exists(snapshot)) {
        const journal_load loaded = load_journal(snapshot);
        if (loaded.dropped_tail) {
            bad_store("snapshot.log: " + loaded.tail_error +
                      " (snapshots are atomic; this file is corrupt)");
        }
        if (loaded.payloads.empty()) {
            bad_store("snapshot.log: empty snapshot");
        }
        adopt_header(parse_header(loaded.payloads.front(), "snapshot.log"),
                     "snapshot.log");
        ingest(loaded.payloads, 1, store.load_stats_.snapshot_records);
    }

    // Journal: a torn tail is the expected crash signature; cut it off
    // before reopening for append.
    const std::filesystem::path journal = dir / journal_file;
    journal_load loaded = load_journal(journal);
    store.load_stats_.dropped_tail = loaded.dropped_tail;
    store.load_stats_.tail_error = loaded.tail_error;
    if (!loaded.payloads.empty()) {
        adopt_header(parse_header(loaded.payloads.front(), "journal.log"),
                     "journal.log");
        ingest(loaded.payloads, 1, store.load_stats_.journal_records);
    }
    if (!have_header) {
        // Both files empty or missing: a crash before the first header
        // write. Only the caller's spec can say what the campaign is.
        if (!expected_fingerprint) {
            bad_store(dir.string() +
                      ": store has no header yet; open it via --resume");
        }
        store.fingerprint_ = *expected_fingerprint;
    }

    store.journal_ = std::make_unique<journal_writer>(
        journal, loaded.dropped_tail || !loaded.payloads.empty()
                     ? loaded.valid_bytes
                     : 0);
    if (loaded.payloads.empty()) {
        // Empty (or headerless) journal: start it properly.
        store.journal_->append(store.header_payload());
    }
    return store;
}

void result_store::record(const point_result& result)
{
    if (!results_.emplace(result.index, result).second) {
        return;
    }
    journal_->append(to_payload(result));
    if (++since_checkpoint_ >= checkpoint_every_) {
        flush_checkpoint();
    }
}

void result_store::flush_checkpoint()
{
    if (since_checkpoint_ == 0) {
        return;
    }
    std::string snapshot = frame_record(header_payload());
    for (const auto& [index, result] : results_) {
        snapshot += frame_record(to_payload(result));
    }
    atomic_write_file(dir_ / snapshot_file, snapshot,
                      /*fault_point=*/true);
    reset_journal();
    since_checkpoint_ = 0;
}

void result_store::reset_journal()
{
    journal_.reset(); // close before replacing the inode
    atomic_write_file(dir_ / journal_file, frame_record(header_payload()),
                      /*fault_point=*/true);
    journal_ = std::make_unique<journal_writer>(dir_ / journal_file);
}

} // namespace mwl
