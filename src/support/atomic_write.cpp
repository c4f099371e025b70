#include "support/atomic_write.hpp"

#include "support/fault_inject.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

namespace mwl {

namespace {

[[noreturn]] void fail(const std::string& what,
                       const std::filesystem::path& path)
{
    throw io_error(what + " " + path.string() + ": " +
                   std::strerror(errno));
}

/// RAII fd so every error path below closes what it opened.
struct fd_guard {
    int fd = -1;
    ~fd_guard()
    {
        if (fd >= 0) {
            ::close(fd);
        }
    }
};

void fsync_directory(const std::filesystem::path& dir)
{
    fd_guard d;
    d.fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (d.fd < 0) {
        fail("cannot open directory", dir);
    }
    // Some filesystems refuse fsync on directories; a failure here cannot
    // un-happen the rename, so it is not fatal.
    static_cast<void>(::fsync(d.fd));
}

} // namespace

void atomic_write_file(const std::filesystem::path& path,
                       std::string_view content, bool fault_point)
{
    const std::filesystem::path temp = path.string() + ".tmp";
    {
        fd_guard f;
        f.fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (f.fd < 0) {
            fail("cannot create", temp);
        }
        const bool boom = fault_point && fault::tick();
        std::string_view body = content;
        if (boom && fault::torn()) {
            body = body.substr(0, body.size() / 2);
        }
        std::size_t written = 0;
        while (written < body.size()) {
            const ::ssize_t n =
                ::write(f.fd, body.data() + written, body.size() - written);
            if (n < 0) {
                if (errno == EINTR) {
                    continue;
                }
                const int saved = errno;
                static_cast<void>(::unlink(temp.c_str()));
                errno = saved;
                fail("cannot write", temp);
            }
            written += static_cast<std::size_t>(n);
        }
        if (::fsync(f.fd) != 0) {
            const int saved = errno;
            static_cast<void>(::unlink(temp.c_str()));
            errno = saved;
            fail("cannot fsync", temp);
        }
        if (boom) {
            // Crash between writing the temp file and renaming it: the
            // target must still hold its previous content.
            fault::crash();
        }
    }
    if (::rename(temp.c_str(), path.c_str()) != 0) {
        const int saved = errno;
        static_cast<void>(::unlink(temp.c_str()));
        errno = saved;
        fail("cannot rename over", path);
    }
    fsync_directory(path.parent_path());
}

bool read_file(const std::filesystem::path& path, std::string& out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        // The non-throwing overload: a path that cannot even be resolved
        // (too long, a symlink loop) reads as missing, not as a
        // filesystem_error escaping every caller's `mwl::error` handler.
        std::error_code ec;
        if (!std::filesystem::exists(path, ec)) {
            return false;
        }
        fail("cannot open", path);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = std::move(buffer).str();
    return true;
}

} // namespace mwl
