// Checkpointed on-disk campaign results.
//
// Layout of a campaign directory:
//
//   spec.campaign  the spec text, written once at creation (atomic)
//   snapshot.log   compacted results up to some point (atomic replace)
//   journal.log    append-only records since that snapshot (fsync each)
//
// Both .log files are framed-record files (io/record_journal.hpp) whose
// first record is a header carrying the store format_version and the
// campaign's point-list fingerprint. Crash safety is by construction:
//
//  * A completed point is journaled (append + fsync) before anyone can
//    observe it as done; a crash loses at most the record being written,
//    whose torn tail the checksummed framing detects and discards, so
//    the point simply re-runs on resume.
//  * Every `checkpoint_every` records the journal is compacted: a full
//    snapshot is atomically replaced, then the journal is atomically
//    reset to just its header. A crash between the two leaves records in
//    both files; loading deduplicates by point index (first occurrence
//    wins -- the values are deterministic, so duplicates agree anyway).
//
// MWL_CRASH_AFTER / MWL_CRASH_TORN (support/fault_inject.hpp) count
// exactly the writes described above, which is what lets the resume-
// equivalence tests crash a campaign at any persistence boundary.

#ifndef MWL_CAMPAIGN_RESULT_STORE_HPP
#define MWL_CAMPAIGN_RESULT_STORE_HPP

#include "io/record_journal.hpp"
#include "support/error.hpp"

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace mwl {

/// A campaign directory whose files do not form a valid store: missing
/// pieces, mid-file corruption, a format_version from a different build,
/// or a fingerprint from a different spec.
class store_format_error : public error {
public:
    using error::error;
};

/// Bump when the record payloads or file layout change incompatibly;
/// stores written by another version are rejected, not misread.
inline constexpr int store_format_version = 1;

/// Outcome of one campaign point. `error` empty means the allocation
/// succeeded and the metric fields are meaningful.
struct point_result {
    std::size_t index = 0;
    std::string key;
    int lambda = 0;
    int latency = 0;
    double area = 0.0;
    std::string error;

    [[nodiscard]] bool ok() const { return error.empty(); }

    friend bool operator==(const point_result&,
                           const point_result&) = default;
};

/// What loading found, for status reporting and the robustness tests.
struct store_load_stats {
    std::size_t snapshot_records = 0;
    std::size_t journal_records = 0;
    std::size_t duplicates = 0;   ///< same index seen again (compaction race)
    bool dropped_tail = false;    ///< torn final journal record discarded
    std::string tail_error;
};

class result_store {
public:
    /// Start a fresh store: creates `dir` if needed, writes the spec copy
    /// and a journal holding only the header. Throws `store_format_error`
    /// if `dir` already contains a campaign, `io_error` on I/O failure.
    [[nodiscard]] static result_store create(
        const std::filesystem::path& dir, const std::string& spec_text,
        std::uint64_t fingerprint, std::size_t total_points,
        std::size_t checkpoint_every = 64);

    /// Open an existing store: load the snapshot (if any), replay the
    /// journal, drop a torn tail (truncating it from the file so appends
    /// are safe), deduplicate, and verify header version + fingerprint
    /// and that every point index lies below the header's point count.
    /// Pass `expected_fingerprint` when the caller re-expanded the spec
    /// (run/resume); `nullopt` trusts the stored header (status/report).
    [[nodiscard]] static result_store open(
        const std::filesystem::path& dir,
        std::optional<std::uint64_t> expected_fingerprint,
        std::size_t checkpoint_every = 64);

    /// True iff `dir` already holds a campaign (spec or store files).
    [[nodiscard]] static bool exists(const std::filesystem::path& dir);

    /// The spec text saved at creation. Throws `store_format_error` if
    /// missing (the directory is not a campaign).
    [[nodiscard]] static std::string load_spec_text(
        const std::filesystem::path& dir);

    /// Durably record one completed point (journal append; may trigger a
    /// compaction). A result for an already-recorded index is ignored.
    void record(const point_result& result);

    /// Compact now: snapshot everything, reset the journal. Called by the
    /// runner on drain-out (interrupt) and at campaign end.
    void flush_checkpoint();

    [[nodiscard]] bool has(std::size_t index) const
    {
        return results_.contains(index);
    }
    /// Completed results keyed (and therefore iterated) by point index.
    [[nodiscard]] const std::map<std::size_t, point_result>& results() const
    {
        return results_;
    }
    [[nodiscard]] std::size_t total_points() const { return total_points_; }
    [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
    [[nodiscard]] const store_load_stats& load_stats() const
    {
        return load_stats_;
    }

private:
    result_store() = default;

    [[nodiscard]] std::string header_payload() const;
    void reset_journal();

    std::filesystem::path dir_;
    std::uint64_t fingerprint_ = 0;
    std::size_t total_points_ = 0;
    std::size_t checkpoint_every_ = 64;
    std::size_t since_checkpoint_ = 0;
    std::map<std::size_t, point_result> results_;
    store_load_stats load_stats_;
    std::unique_ptr<journal_writer> journal_;
};

/// Serialise / parse one point record payload ("point index=... key=...
/// lambda=... latency=... area=... status=..."); exposed for the store
/// format tests. Doubles round-trip exactly (%.17g). Parse splits fields
/// with io/line_reader's splitter and numbers with support/parse_num, and
/// throws `store_format_error` on malformed payloads.
[[nodiscard]] std::string to_payload(const point_result& result);
[[nodiscard]] point_result parse_point_payload(std::string_view payload);

} // namespace mwl

#endif // MWL_CAMPAIGN_RESULT_STORE_HPP
