#include "serve/client.hpp"

#include "support/parse_num.hpp"

#include <cerrno>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace mwl::serve {

namespace {

[[noreturn]] void usage_error(const std::string& text)
{
    throw precondition_error("endpoint must be unix:PATH or tcp:HOST:PORT, "
                             "got '" +
                             text + "'");
}

/// Connect once; returns -1 with errno set on failure.
int try_connect(const endpoint& ep)
{
    if (ep.what == endpoint::kind::unix_socket) {
        sockaddr_un addr = {};
        addr.sun_family = AF_UNIX;
        if (ep.path.size() >= sizeof addr.sun_path) {
            errno = ENAMETOOLONG;
            return -1;
        }
        std::strncpy(addr.sun_path, ep.path.c_str(),
                     sizeof addr.sun_path - 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            return -1;
        }
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) != 0) {
            const int saved = errno;
            ::close(fd);
            errno = saved;
            return -1;
        }
        return fd;
    }
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(ep.port));
    if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
        errno = EINVAL;
        return -1;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return -1;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        return -1;
    }
    return fd;
}

} // namespace

endpoint parse_endpoint(const std::string& text)
{
    endpoint ep;
    if (text.rfind("unix:", 0) == 0) {
        ep.what = endpoint::kind::unix_socket;
        ep.path = text.substr(5);
        if (ep.path.empty()) {
            usage_error(text);
        }
        return ep;
    }
    if (text.rfind("tcp:", 0) == 0) {
        ep.what = endpoint::kind::tcp;
        const std::string rest = text.substr(4);
        const std::size_t colon = rest.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 == rest.size()) {
            usage_error(text);
        }
        ep.host = rest.substr(0, colon);
        try {
            ep.port = parse_int_checked(rest.substr(colon + 1));
        } catch (const precondition_error&) {
            usage_error(text);
        }
        if (ep.port < 1 || ep.port > 65535) {
            usage_error(text);
        }
        return ep;
    }
    usage_error(text);
}

std::string to_string(const endpoint& ep)
{
    if (ep.what == endpoint::kind::unix_socket) {
        return "unix:" + ep.path;
    }
    return "tcp:" + ep.host + ":" + std::to_string(ep.port);
}

client_connection::client_connection(const endpoint& ep)
{
    fd_ = try_connect(ep);
    if (fd_ < 0) {
        throw error("cannot connect to " + to_string(ep) + ": " +
                    std::strerror(errno));
    }
}

client_connection::~client_connection()
{
    if (fd_ >= 0) {
        ::close(fd_);
    }
}

bool client_connection::send(const std::string& payload)
{
    return write_frame(fd_, payload);
}

std::optional<response> client_connection::receive()
{
    std::string payload;
    // The server never sends an oversized frame; accept anything the
    // stats body could reasonably grow to.
    const frame_status status =
        read_frame(fd_, payload, default_max_frame);
    switch (status) {
    case frame_status::ok:
        return parse_response(payload);
    case frame_status::eof:
    case frame_status::truncated:
        return std::nullopt;
    case frame_status::malformed:
        throw protocol_error("malformed response frame from server");
    case frame_status::oversized:
        throw protocol_error("oversized response frame from server");
    }
    return std::nullopt;
}

std::optional<int> connect_with_retry(const endpoint& ep, int timeout_ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
        const int fd = try_connect(ep);
        if (fd >= 0) {
            return fd;
        }
        if (std::chrono::steady_clock::now() >= deadline) {
            return std::nullopt;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

} // namespace mwl::serve
