// Crash-safe whole-file replacement.
//
// Every durable file the campaign layer owns (spec copies, snapshots,
// journal resets) goes through one primitive: write the new content to a
// temporary in the same directory, fsync it, rename it over the target,
// and fsync the directory so the rename itself is durable. A reader can
// therefore observe only the old content or the new content, never a
// prefix -- the property the checkpointed result store is built on
// (src/campaign/result_store.hpp). Torn output is possible only in the
// append-only journal, whose per-record checksums catch it.

#ifndef MWL_SUPPORT_ATOMIC_WRITE_HPP
#define MWL_SUPPORT_ATOMIC_WRITE_HPP

#include "support/error.hpp"

#include <filesystem>
#include <string_view>

namespace mwl {

/// A filesystem operation (open/write/fsync/rename) failed; `what()`
/// names the path and the errno text.
class io_error : public error {
public:
    using error::error;
};

/// Atomically replace `path` with `content`: temp file in the same
/// directory + fsync + rename + directory fsync. On any failure the
/// target is untouched and the temp file is removed. Throws `io_error`.
///
/// `fault_point` opts this write into the crash-injection harness
/// (support/fault_inject.hpp): when the armed countdown elapses here, the
/// process exits after the temp file is written but *before* the rename,
/// simulating a crash mid-replacement -- the target must keep its old
/// content. Store-owned writes pass true; incidental files stay out of
/// the countdown so MWL_CRASH_AFTER counts exactly the store's writes.
void atomic_write_file(const std::filesystem::path& path,
                       std::string_view content, bool fault_point = false);

/// Durably read a whole file into a string. Returns false if the file
/// does not exist or its path cannot be resolved; throws `io_error` on any
/// other failure.
bool read_file(const std::filesystem::path& path, std::string& out);

} // namespace mwl

#endif // MWL_SUPPORT_ATOMIC_WRITE_HPP
