// Minimal HTTP/1.1 message model: request/response structs, serialization,
// and incremental parsing — everything both ends of a connection need.
//
// This is deliberately a *message* library, not a client: the same
// serialize/parse pair drives the real socket client (net/http_client.h),
// the epoll server (net/http_server.h), and the in-process loopback used by
// tests, so no two ends of a connection can disagree about framing.
// Supported framing: Content-Length bodies, chunked transfer-coding
// (responses), and read-to-EOF responses. Requests are always
// Content-Length framed; a request bearing Transfer-Encoding is rejected
// outright (Unimplemented -> 501) and the smuggling-shaped combinations —
// Transfer-Encoding together with Content-Length, or conflicting duplicate
// Content-Length values — are hard parse errors (-> 400), per RFC 9112 §6.

#ifndef SOFYA_NET_HTTP_H_
#define SOFYA_NET_HTTP_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace sofya {

/// One header field. Comparison of names is ASCII case-insensitive per
/// RFC 9110; values are verbatim.
struct HttpHeader {
  std::string name;
  std::string value;
};

/// An HTTP request (client -> server).
struct HttpRequest {
  std::string method = "POST";
  std::string target = "/";  ///< Origin-form request target (path?query).
  std::vector<HttpHeader> headers;
  std::string body;
};

/// An HTTP response (server -> client).
struct HttpResponse {
  int status_code = 200;
  std::string reason = "OK";
  std::vector<HttpHeader> headers;
  std::string body;
};

/// Case-insensitive header lookup; nullptr when absent.
const std::string* FindHeader(const std::vector<HttpHeader>& headers,
                              std::string_view name);

/// True when the message asks for the connection to be closed after it
/// ("Connection: close"; HTTP/1.1 default is keep-alive).
bool WantsClose(const std::vector<HttpHeader>& headers);

/// Serializes a request as HTTP/1.1 on the wire. A Content-Length header is
/// appended automatically (always, so zero-body POSTs are unambiguous);
/// Host must already be present among `request.headers`.
std::string SerializeHttpRequest(const HttpRequest& request);

/// Serializes a response as HTTP/1.1 with an automatic Content-Length.
std::string SerializeHttpResponse(const HttpResponse& response);

/// Incremental request parse. Returns the number of bytes consumed from the
/// front of `data` when one complete request was parsed into `*out`, 0 when
/// more bytes are needed, or an error for a malformed message. Requests are
/// framed by Content-Length (absent => no body). Framing guards (see file
/// comment): Transfer-Encoding on a request is Unimplemented; a request
/// carrying both Transfer-Encoding and Content-Length, or duplicate
/// Content-Length headers with conflicting values, is a ParseError. A request
/// whose head plus declared body exceeds `max_request_bytes` is
/// ResourceExhausted as soon as its head is parsed, before the body arrives.
StatusOr<size_t> TryParseHttpRequest(
    std::string_view data, HttpRequest* out,
    size_t max_request_bytes = std::numeric_limits<size_t>::max());

/// Incremental response parse; same contract as TryParseHttpRequest.
/// Handles Content-Length and chunked framing. A response with neither is
/// framed by connection close: it completes only when `eof` is true (pass
/// the transport's EOF signal) and then consumes all of `data`.
StatusOr<size_t> TryParseHttpResponse(std::string_view data, bool eof,
                                      HttpResponse* out);

/// Streaming response reader for the client's read loop. Unlike
/// TryParseHttpResponse — which re-scans its input from byte 0 on every
/// call — the reader keeps O(1) state between Feed()s, so a large
/// Content-Length or chunked body costs one pass no matter how many socket
/// reads deliver it.
class HttpResponseReader {
 public:
  /// Consumes `data`. After a return with done()==true, leftover() bytes
  /// at the end of this feed did NOT belong to the response (a desynced
  /// server); further Feed() calls are invalid. Errors are terminal.
  Status Feed(std::string_view data);

  /// Signals transport EOF. Completes a read-to-EOF-framed body; any other
  /// incomplete state becomes Unavailable (truncated response).
  Status FinishEof();

  bool done() const { return state_ == State::kDone; }

  /// Bytes from the final Feed() that belong to the *next* message (only
  /// meaningful once done; nonzero means the connection is desynced).
  size_t leftover() const { return leftover_; }

  /// True when the response consumed the connection (read-to-EOF framing).
  bool ate_connection() const { return ate_connection_; }

  /// The parsed response; valid once done().
  HttpResponse& response() { return response_; }

 private:
  enum class State {
    kHeaders,       ///< Accumulating status line + header block.
    kFixedBody,     ///< Content-Length body: body_remaining_ bytes to go.
    kEofBody,       ///< No framing header: body runs to EOF.
    kChunkHeader,   ///< Reading a chunk-size line.
    kChunkData,     ///< Inside a chunk: body_remaining_ bytes + CRLF.
    kChunkTrailer,  ///< After the last-chunk: trailer lines to blank line.
    kDone,
  };

  /// Transitions out of kHeaders once the header block is complete.
  Status BeginBody();

  State state_ = State::kHeaders;
  std::string buffer_;       ///< Header block / partial framing lines.
  size_t scanned_ = 0;       ///< Prefix of buffer_ already searched.
  uint64_t body_remaining_ = 0;
  uint32_t chunk_pad_ = 0;   ///< Unconsumed bytes of a chunk's CRLF tail.
  size_t leftover_ = 0;
  bool ate_connection_ = false;
  HttpResponse response_;
};

/// A parsed http:// URL.
struct ParsedUrl {
  std::string scheme;  ///< "http" (https is rejected: no TLS stack here).
  std::string host;
  uint16_t port = 80;
  std::string target;  ///< Path + optional query; never empty ("/").
};

/// Parses an absolute http:// URL. https yields Unimplemented (point the
/// client at a plaintext endpoint or a local TLS-terminating proxy).
StatusOr<ParsedUrl> ParseUrl(std::string_view url);

// ------------------------------------------------------------------------
// Percent-encoding / application/x-www-form-urlencoded (RFC 3986 §2.1,
// WHATWG URL). The SPARQL 1.1 Protocol mandates GET ?query=... for the
// query operation; these helpers are what both the server's target parsing
// and the client's GET target construction go through, so encode and decode
// cannot drift. All functions treat bytes as UTF-8-agnostic octets: any
// byte sequence round-trips encode -> decode unchanged.

/// Percent-encodes `raw` for use as a URI query component: unreserved
/// characters (ALPHA / DIGIT / "-" / "." / "_" / "~") pass through, every
/// other octet becomes %XX (uppercase hex).
std::string PercentEncode(std::string_view raw);

/// Strict percent-decoding. Rejects truncated escapes ("%", "%A") and
/// non-hex escape digits ("%zz"). `plus_as_space` additionally maps '+' to
/// ' ' (the form-urlencoded convention); leave it off for path segments.
StatusOr<std::string> PercentDecode(std::string_view encoded,
                                    bool plus_as_space = false);

/// Encodes `raw` as one application/x-www-form-urlencoded value: like
/// PercentEncode, but ' ' becomes '+'.
std::string FormUrlEncode(std::string_view raw);

/// One decoded key=value pair of a query string / form body.
struct QueryParam {
  std::string key;
  std::string value;
};

/// Parses an application/x-www-form-urlencoded string ("a=1&b=x%20y") into
/// decoded pairs, preserving order and duplicates. A field without '=' gets
/// an empty value. Empty fields ("a=1&&b=2") are skipped. Errors on any
/// malformed percent escape.
StatusOr<std::vector<QueryParam>> ParseQueryString(std::string_view query);

/// Splits an origin-form request target into its path and (undecoded) query
/// string; the query is empty when there is no '?'.
void SplitTarget(std::string_view target, std::string_view* path,
                 std::string_view* query);

}  // namespace sofya

#endif  // SOFYA_NET_HTTP_H_
