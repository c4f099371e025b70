// Wire protocol of the allocation service (mwl_serve / mwl_client).
//
// Transport: a stream socket (unix or TCP) carrying length-delimited
// frames in both directions. Every frame is
//
//   +------+------+----------------------+
//   | MWL1 | len  | payload (len bytes)  |
//   +------+------+----------------------+
//     4 B    4 B big-endian
//
// The magic catches stream desync and non-protocol peers before a bogus
// length is trusted; the length bound (server `--max-frame`) rejects
// oversized graphs without reading them. Frames never interleave: each
// side writes a frame under a per-connection lock, so a reader either
// gets a whole frame or a clean truncation (peer died mid-frame) --
// "no torn frames" is the invariant the drain tests pin.
//
// Payloads are text. Line one is a header of whitespace-separated tokens
// (first token = verb, then `key=value` pairs; io/line_reader's splitter,
// no comments, numbers through support/parse_num); everything after the
// first newline is the body. Requests:
//
//   alloc id=N [lambda=L | slack=PCT]    body: the graph, .mwl format
//   stats id=N
//   ping  id=N
//
// Responses (`id` echoes the request, so clients may pipeline):
//
//   ok id=N lambda=L latency=T area=A cached=B coalesced=B micros=U
//   ok id=N                              body: stats JSON (stats request)
//   busy id=N retry-after-ms=R           admission rejection; retry later
//   error id=N MESSAGE...                bad request or infeasible job;
//                                        MESSAGE is the rest of the line
//
// The request id is chosen by the client and only needs to be unique
// among its own outstanding requests; the server never interprets it.

#ifndef MWL_SERVE_PROTOCOL_HPP
#define MWL_SERVE_PROTOCOL_HPP

#include "support/error.hpp"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace mwl::serve {

/// Default bound on a frame payload (server-side `--max-frame`).
inline constexpr std::size_t default_max_frame = 4u << 20;

/// Bytes of framing preceding every payload (magic + length).
inline constexpr std::size_t frame_header_bytes = 8;

/// How long a blocked reader sleeps between looks at its stop condition
/// (read_frame's `abandon`, the server's accept and connection loops).
inline constexpr int poll_interval_ms = 50;

/// A peer violated the payload grammar (framing itself reports through
/// `frame_status`, not exceptions -- a broken stream is an expected event
/// for a server, not an error state).
class protocol_error : public error {
public:
    using error::error;
};

enum class frame_status {
    ok,        ///< a whole frame was read
    eof,       ///< clean end of stream at a frame boundary
    truncated, ///< stream ended mid-header or mid-payload
    malformed, ///< header magic mismatch (desynced or foreign peer)
    oversized, ///< declared length exceeds the `max_payload` bound
    abandoned, ///< `abandon()` held while waiting for bytes; any partial
               ///< frame was consumed and dropped
};

/// Human-readable name of a status ("ok", "eof", ...).
[[nodiscard]] const char* to_string(frame_status status);

/// Read one frame from `fd` into `payload` (blocking). On `oversized`
/// the payload bytes are left unread -- the stream is desynced and the
/// connection should be closed after reporting the rejection.
///
/// With `abandon`, `fd` must be a socket and the read never blocks for
/// longer than `poll_interval_ms` at a time: whenever no byte is ready it
/// asks `abandon()` and returns `abandoned` once that holds, also in the
/// middle of a frame (a peer that stops sending mid-frame cannot hold the
/// reader, e.g. a server drain, hostage).
[[nodiscard]] frame_status read_frame(
    int fd, std::string& payload, std::size_t max_payload,
    const std::function<bool()>& abandon = {});

/// Write one frame (header + payload) to `fd`, looping over short
/// writes. Returns false when the peer is gone (EPIPE/ECONNRESET --
/// callers ignore this for responses to a dead client) or on any other
/// write error. Never raises SIGPIPE.
[[nodiscard]] bool write_frame(int fd, std::string_view payload);

// ------------------------------------------------------------ requests --

struct request {
    enum class kind { alloc, stats, ping };

    kind what = kind::ping;
    std::uint64_t id = 0;
    std::optional<int> lambda; ///< exact latency constraint
    double slack = 0.0;        ///< else: relax lambda_min by this fraction
    std::string graph_text;    ///< alloc body, .mwl format
};

/// Parse a request payload. Throws `protocol_error` on an unknown verb,
/// an unparseable token, or a conflicting lambda=/slack= pair.
[[nodiscard]] request parse_request(std::string_view payload);

/// Client-side formatters.
[[nodiscard]] std::string format_alloc_request(std::uint64_t id,
                                               std::optional<int> lambda,
                                               double slack,
                                               std::string_view graph_text);
[[nodiscard]] std::string format_stats_request(std::uint64_t id);
[[nodiscard]] std::string format_ping_request(std::uint64_t id);

// ----------------------------------------------------------- responses --

struct response {
    enum class status { ok, error, busy };

    status what = status::ok;
    std::uint64_t id = 0;
    int lambda = 0;
    int latency = 0;
    double area = 0.0;
    bool cached = false;
    bool coalesced = false;
    double micros = 0.0;    ///< server-side allocation wall time
    int retry_after_ms = 0; ///< busy responses: back off at least this long
    std::string message;    ///< error text
    std::string body;       ///< stats JSON
};

/// Server-side formatter (exact inverse of `parse_response`).
[[nodiscard]] std::string format_response(const response& r);

/// Parse a response payload. Throws `protocol_error` on grammar errors.
[[nodiscard]] response parse_response(std::string_view payload);

} // namespace mwl::serve

#endif // MWL_SERVE_PROTOCOL_HPP
