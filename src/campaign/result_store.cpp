#include "campaign/result_store.hpp"

#include "io/line_reader.hpp"
#include "support/atomic_write.hpp"
#include "support/json.hpp"
#include "support/parse_num.hpp"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string_view>
#include <system_error>
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

/// The key=value fields of a record payload after its tag token.
/// `detail=` takes the rest of the payload verbatim (error messages
/// contain spaces), so it must come last.
class record_fields {
public:
    record_fields(std::string_view payload,
                  const std::vector<std::string_view>& tokens)
    {
        for (std::size_t i = 1; i < tokens.size(); ++i) {
            const std::string_view rest =
                payload.substr(tokens[i].data() - payload.data());
            std::optional<key_value> kv = split_key_value(tokens[i]);
            if (!kv) {
                bad_store("malformed record field near '" +
                          std::string(rest) + "'");
            }
            if (kv->key == "detail") {
                kv->value = rest.substr(kv->key.size() + 1);
                fields_.push_back(*kv);
                return;
            }
            fields_.push_back(*kv);
        }
    }

    [[nodiscard]] const key_value& get(const char* key) const
    {
        for (const key_value& kv : fields_) {
            if (kv.key == key) {
                return kv;
            }
        }
        bad_store(std::string("record is missing field '") + key + "'");
    }

    /// The field through parse_num, the token as context.
    template <typename T>
    [[nodiscard]] T number(const char* key) const
    {
        const key_value& kv = get(key);
        try {
            return parse_checked<T>(kv.value, kv.token);
        } catch (const precondition_error& e) {
            bad_store(e.what());
        }
    }

private:
    std::vector<key_value> fields_;
};

struct header {
    int format_version = 0;
    std::uint64_t fingerprint = 0;
    std::size_t points = 0;
};

header parse_header(std::string_view payload, const std::string& where)
{
    const std::vector<std::string_view> tokens = split_tokens(payload);
    if (tokens.empty() || tokens[0] != "campaign-store") {
        bad_store(where + ": first record is not a campaign-store header");
    }
    const record_fields fields(payload, tokens);
    header h;
    h.format_version = fields.number<int>("format_version");
    if (h.format_version != store_format_version) {
        bad_store(where + ": incompatible checkpoint format_version " +
                  std::to_string(h.format_version) + " (this build reads " +
                  std::to_string(store_format_version) + ")");
    }
    const std::string_view hex = fields.get("fingerprint").value;
    const auto [end, ec] =
        std::from_chars(hex.data(), hex.data() + hex.size(), h.fingerprint,
                        16);
    if (ec != std::errc() || hex.empty() || end != hex.data() + hex.size()) {
        bad_store("bad fingerprint '" + std::string(hex) + "'");
    }
    h.points = fields.number<std::size_t>("points");
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

point_result parse_point_payload(std::string_view payload)
{
    const std::vector<std::string_view> tokens = split_tokens(payload);
    if (tokens.empty() || tokens[0] != "point") {
        bad_store("record is not a point record: '" + std::string(payload) +
                  "'");
    }
    const record_fields fields(payload, tokens);
    point_result r;
    r.index = fields.number<std::size_t>("index");
    r.key = fields.get("key").value;
    r.lambda = fields.number<int>("lambda");
    r.latency = fields.number<int>("latency");
    r.area = fields.number<double>("area");
    const std::string_view status = fields.get("status").value;
    if (status == "error") {
        r.error = fields.get("detail").value;
        if (r.error.empty()) {
            r.error = "unknown error";
        }
    } else if (status != "ok") {
        bad_store("bad status '" + std::string(status) + "'");
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
    // Every record after a file's header; its points must lie inside the
    // campaign the header describes. A header written by the headerless
    // recovery below says points=0: that count is unknown, not zero.
    const auto ingest = [&](const std::vector<std::string>& payloads,
                            const std::string& where, std::size_t& counter) {
        for (std::size_t i = 1; i < payloads.size(); ++i) {
            point_result r = parse_point_payload(payloads[i]);
            if (store.total_points_ != 0 && r.index >= store.total_points_) {
                bad_store(where + ": point index " + std::to_string(r.index) +
                          " is beyond the campaign's " +
                          std::to_string(store.total_points_) + " points");
            }
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
        ingest(loaded.payloads, "snapshot.log",
               store.load_stats_.snapshot_records);
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
        ingest(loaded.payloads, "journal.log",
               store.load_stats_.journal_records);
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
