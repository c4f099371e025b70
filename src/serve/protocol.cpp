#include "serve/protocol.hpp"

#include "io/line_reader.hpp"
#include "support/json.hpp"
#include "support/parse_num.hpp"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace mwl::serve {

namespace {

constexpr char frame_magic[4] = {'M', 'W', 'L', '1'};

/// Read exactly `n` bytes unless the stream ends first or, with
/// `abandon`, it holds while no byte is ready (then `abandoned` is set);
/// returns the number of bytes actually read (EINTR retried).
std::size_t read_exact(int fd, char* buffer, std::size_t n,
                       const std::function<bool()>& abandon, bool& abandoned)
{
    std::size_t got = 0;
    while (got < n) {
        const ssize_t r =
            abandon ? ::recv(fd, buffer + got, n - got, MSG_DONTWAIT)
                    : ::read(fd, buffer + got, n - got);
        if (r < 0) {
            if (errno == EINTR) {
                continue;
            }
            if (abandon && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                if (abandon()) {
                    abandoned = true;
                    return got;
                }
                pollfd p = {fd, POLLIN, 0};
                static_cast<void>(::poll(&p, 1, poll_interval_ms));
                continue;
            }
            return got;
        }
        if (r == 0) {
            return got;
        }
        got += static_cast<std::size_t>(r);
    }
    return got;
}

} // namespace

const char* to_string(frame_status status)
{
    switch (status) {
    case frame_status::ok: return "ok";
    case frame_status::eof: return "eof";
    case frame_status::truncated: return "truncated";
    case frame_status::malformed: return "malformed";
    case frame_status::oversized: return "oversized";
    case frame_status::abandoned: return "abandoned";
    }
    return "?";
}

frame_status read_frame(int fd, std::string& payload,
                        std::size_t max_payload,
                        const std::function<bool()>& abandon)
{
    bool abandoned = false;
    char header[frame_header_bytes];
    const std::size_t got =
        read_exact(fd, header, sizeof header, abandon, abandoned);
    if (abandoned) {
        return frame_status::abandoned;
    }
    if (got == 0) {
        return frame_status::eof;
    }
    if (got < sizeof header) {
        return frame_status::truncated;
    }
    if (std::memcmp(header, frame_magic, sizeof frame_magic) != 0) {
        return frame_status::malformed;
    }
    const auto b = [&](int i) {
        return static_cast<std::uint32_t>(
            static_cast<unsigned char>(header[4 + i]));
    };
    const std::uint32_t length = (b(0) << 24) | (b(1) << 16) | (b(2) << 8) |
                                 b(3);
    if (length > max_payload) {
        return frame_status::oversized;
    }
    payload.resize(length);
    if (read_exact(fd, payload.data(), length, abandon, abandoned) <
        length) {
        return abandoned ? frame_status::abandoned : frame_status::truncated;
    }
    return frame_status::ok;
}

bool write_frame(int fd, std::string_view payload)
{
    std::string frame;
    frame.reserve(frame_header_bytes + payload.size());
    frame.append(frame_magic, sizeof frame_magic);
    const auto length = static_cast<std::uint32_t>(payload.size());
    frame.push_back(static_cast<char>((length >> 24) & 0xff));
    frame.push_back(static_cast<char>((length >> 16) & 0xff));
    frame.push_back(static_cast<char>((length >> 8) & 0xff));
    frame.push_back(static_cast<char>(length & 0xff));
    frame.append(payload);

    std::size_t sent = 0;
    while (sent < frame.size()) {
        // MSG_NOSIGNAL: a response racing a client disconnect must fail
        // with EPIPE, not kill the server. Falls back to write() for
        // non-socket fds (protocol unit tests over pipes).
        ssize_t w = ::send(fd, frame.data() + sent, frame.size() - sent,
                           MSG_NOSIGNAL);
        if (w < 0 && errno == ENOTSOCK) {
            w = ::write(fd, frame.data() + sent, frame.size() - sent);
        }
        if (w < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;
        }
        sent += static_cast<std::size_t>(w);
    }
    return true;
}

// --------------------------------------------------------------- grammar --

namespace {

[[noreturn]] void bad(const std::string& message)
{
    throw protocol_error(message);
}

/// The value of `kv` through parse_num, the token as context. Failures
/// become protocol_errors: the reader thread in server::serve_connection
/// catches only that type.
template <typename T>
T number(const key_value& kv)
{
    try {
        return parse_checked<T>(kv.value, kv.token);
    } catch (const precondition_error& e) {
        bad(e.what());
    }
}

/// Append `value` in decimal, as `std::ostream <<` prints it.
template <typename Int>
void append_int(std::string& out, Int value)
{
    char buf[24];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, value);
    out.append(buf, r.ptr);
}

/// The header line (up to the first newline) and the body after it.
std::pair<std::string_view, std::string_view> split_payload(
    std::string_view payload)
{
    const std::size_t newline = payload.find('\n');
    if (newline == std::string_view::npos) {
        return {payload, {}};
    }
    return {payload.substr(0, newline), payload.substr(newline + 1)};
}

} // namespace

request parse_request(std::string_view payload)
{
    const auto [header, body] = split_payload(payload);
    const std::vector<std::string_view> tokens = split_tokens(header);
    if (tokens.empty()) {
        bad("empty request");
    }
    request r;
    if (tokens[0] == "alloc") {
        r.what = request::kind::alloc;
    } else if (tokens[0] == "stats") {
        r.what = request::kind::stats;
    } else if (tokens[0] == "ping") {
        r.what = request::kind::ping;
    } else {
        bad("unknown request verb '" + std::string(tokens[0]) + "'");
    }
    bool have_lambda = false;
    bool have_slack = false;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::optional<key_value> kv = split_key_value(tokens[i]);
        const std::string_view key = kv ? kv->key : std::string_view();
        const bool alloc = r.what == request::kind::alloc;
        if (key == "id") {
            r.id = number<std::uint64_t>(*kv);
        } else if (key == "lambda" && alloc) {
            r.lambda = number<int>(*kv);
            have_lambda = true;
        } else if (key == "slack" && alloc) {
            r.slack = number<double>(*kv) / 100.0;
            if (r.slack < 0.0) {
                bad("slack must be non-negative");
            }
            have_slack = true;
        } else {
            bad("unknown request token '" + std::string(tokens[i]) + "'");
        }
    }
    if (have_lambda && have_slack) {
        bad("lambda= and slack= are mutually exclusive");
    }
    if (r.what == request::kind::alloc) {
        r.graph_text = body;
    }
    return r;
}

std::string format_alloc_request(std::uint64_t id, std::optional<int> lambda,
                                 double slack, std::string_view graph_text)
{
    std::string out;
    out.reserve(64 + graph_text.size());
    out += "alloc id=";
    append_int(out, id);
    if (lambda) {
        out += " lambda=";
        append_int(out, *lambda);
    } else if (slack != 0.0) {
        out += " slack=";
        append_double(out, slack * 100.0);
    }
    out += '\n';
    out += graph_text;
    return out;
}

std::string format_stats_request(std::uint64_t id)
{
    return "stats id=" + std::to_string(id);
}

std::string format_ping_request(std::uint64_t id)
{
    return "ping id=" + std::to_string(id);
}

std::string format_response(const response& r)
{
    std::string out;
    out.reserve(160 + r.body.size() + r.message.size());
    switch (r.what) {
    case response::status::ok:
        out += "ok id=";
        append_int(out, r.id);
        if (r.body.empty()) {
            out += " lambda=";
            append_int(out, r.lambda);
            out += " latency=";
            append_int(out, r.latency);
            out += " area=";
            append_double(out, r.area);
            out += r.cached ? " cached=1" : " cached=0";
            out += r.coalesced ? " coalesced=1" : " coalesced=0";
            out += " micros=";
            append_double(out, r.micros);
        } else {
            out += '\n';
            out += r.body;
        }
        break;
    case response::status::busy:
        out += "busy id=";
        append_int(out, r.id);
        out += " retry-after-ms=";
        append_int(out, r.retry_after_ms);
        break;
    case response::status::error:
        out += "error id=";
        append_int(out, r.id);
        out += ' ';
        out += r.message;
        break;
    }
    return out;
}

response parse_response(std::string_view payload)
{
    const auto [header, body] = split_payload(payload);
    const std::vector<std::string_view> tokens = split_tokens(header);
    if (tokens.empty()) {
        bad("empty response");
    }
    response r;
    if (tokens[0] == "ok") {
        r.what = response::status::ok;
    } else if (tokens[0] == "busy") {
        r.what = response::status::busy;
    } else if (tokens[0] == "error") {
        r.what = response::status::error;
    } else {
        bad("unknown response verb '" + std::string(tokens[0]) + "'");
    }
    r.body = body;
    if (r.what == response::status::error) {
        // `error id=N MESSAGE`: the message is free text, the rest of the
        // header after id=N taken as one substring.
        std::size_t text = 1;
        const std::optional<key_value> id =
            tokens.size() > 1 ? split_key_value(tokens[1]) : std::nullopt;
        if (id && id->key == "id") {
            r.id = number<std::uint64_t>(*id);
            text = 2;
        }
        if (text < tokens.size()) {
            r.message = header.substr(tokens[text].data() - header.data());
        }
        return r;
    }
    for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::optional<key_value> kv = split_key_value(tokens[i]);
        const std::string_view key = kv ? kv->key : std::string_view();
        if (key == "id") {
            r.id = number<std::uint64_t>(*kv);
        } else if (key == "lambda") {
            r.lambda = number<int>(*kv);
        } else if (key == "latency") {
            r.latency = number<int>(*kv);
        } else if (key == "area") {
            r.area = number<double>(*kv);
        } else if (key == "cached") {
            r.cached = number<int>(*kv) != 0;
        } else if (key == "coalesced") {
            r.coalesced = number<int>(*kv) != 0;
        } else if (key == "micros") {
            r.micros = number<double>(*kv);
        } else if (key == "retry-after-ms") {
            r.retry_after_ms = number<int>(*kv);
        } else {
            bad("unknown response token '" + std::string(tokens[i]) + "'");
        }
    }
    return r;
}

} // namespace mwl::serve
