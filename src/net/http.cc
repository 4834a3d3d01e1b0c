#include "net/http.h"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "util/string_util.h"

namespace sofya {
namespace {

constexpr std::string_view kCrlf = "\r\n";

// Guard against absurd messages before buffering them whole.
constexpr size_t kMaxHeaderBytes = 1u << 20;    // 1 MiB of headers.

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view TrimOws(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses the header block starting after the start line. On success,
/// `*end_of_headers` is the offset just past the blank line. Returns
/// kNeedMore (0 consumed, signalled by returning false with OK status)…
/// Implemented as: returns OK + found=false when incomplete.
Status ParseHeaderBlock(std::string_view data, size_t start,
                        std::vector<HttpHeader>* headers, size_t* body_start,
                        bool* complete) {
  *complete = false;
  size_t pos = start;
  while (true) {
    const size_t eol = data.find(kCrlf, pos);
    if (eol == std::string_view::npos) {
      if (data.size() - start > kMaxHeaderBytes) {
        return Status::ParseError("http: header block exceeds 1 MiB");
      }
      return Status::OK();  // Need more bytes.
    }
    if (eol == pos) {  // Blank line: end of headers.
      *body_start = eol + kCrlf.size();
      *complete = true;
      return Status::OK();
    }
    const std::string_view line = data.substr(pos, eol - pos);
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Status::ParseError("http: malformed header line");
    }
    const std::string_view name = line.substr(0, colon);
    // Field names must not contain whitespace (smuggling guard).
    if (name.find(' ') != std::string_view::npos ||
        name.find('\t') != std::string_view::npos) {
      return Status::ParseError("http: whitespace in header field name");
    }
    headers->push_back(HttpHeader{std::string(name),
                                  std::string(TrimOws(line.substr(colon + 1)))});
    pos = eol + kCrlf.size();
  }
}

/// Strict non-negative integer parse (decimal).
bool ParseUint64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), *out, 10);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool ParseHex64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), *out, 16);
  return ec == std::errc() && ptr == s.data() + s.size();
}

/// Decodes a chunked body starting at `pos`. Same incremental contract:
/// complete=false means "need more bytes".
Status ParseChunkedBody(std::string_view data, size_t pos, std::string* body,
                        size_t* end, bool* complete) {
  *complete = false;
  std::string decoded;
  while (true) {
    const size_t eol = data.find(kCrlf, pos);
    if (eol == std::string_view::npos) return Status::OK();
    // Chunk extensions (";...") are tolerated and ignored.
    std::string_view size_field = data.substr(pos, eol - pos);
    const size_t semi = size_field.find(';');
    if (semi != std::string_view::npos) size_field = size_field.substr(0, semi);
    uint64_t chunk_size = 0;
    if (!ParseHex64(TrimOws(size_field), &chunk_size)) {
      return Status::ParseError("http: malformed chunk size");
    }
    pos = eol + kCrlf.size();
    if (chunk_size == 0) {
      // Trailer section: skip header lines until the blank line.
      while (true) {
        const size_t teol = data.find(kCrlf, pos);
        if (teol == std::string_view::npos) return Status::OK();
        if (teol == pos) {
          *body = std::move(decoded);
          *end = teol + kCrlf.size();
          *complete = true;
          return Status::OK();
        }
        pos = teol + kCrlf.size();
      }
    }
    if (data.size() < pos + chunk_size + kCrlf.size()) return Status::OK();
    decoded.append(data.substr(pos, chunk_size));
    pos += chunk_size;
    if (data.substr(pos, kCrlf.size()) != kCrlf) {
      return Status::ParseError("http: chunk data not CRLF-terminated");
    }
    pos += kCrlf.size();
  }
}

void AppendHeaders(const std::vector<HttpHeader>& headers, size_t body_size,
                   std::string* out) {
  bool have_length = false;
  for (const HttpHeader& h : headers) {
    if (EqualsIgnoreCase(h.name, "Content-Length")) have_length = true;
    out->append(h.name);
    out->append(": ");
    out->append(h.value);
    out->append(kCrlf);
  }
  if (!have_length) {
    out->append("Content-Length: ");
    out->append(std::to_string(body_size));
    out->append(kCrlf);
  }
  out->append(kCrlf);
}

}  // namespace

const std::string* FindHeader(const std::vector<HttpHeader>& headers,
                              std::string_view name) {
  for (const HttpHeader& h : headers) {
    if (EqualsIgnoreCase(h.name, name)) return &h.value;
  }
  return nullptr;
}

bool WantsClose(const std::vector<HttpHeader>& headers) {
  const std::string* connection = FindHeader(headers, "Connection");
  return connection != nullptr && EqualsIgnoreCase(*connection, "close");
}

std::string SerializeHttpRequest(const HttpRequest& request) {
  std::string out;
  out.reserve(128 + request.body.size());
  out += request.method;
  out += ' ';
  out += request.target.empty() ? "/" : request.target;
  out += " HTTP/1.1";
  out += kCrlf;
  AppendHeaders(request.headers, request.body.size(), &out);
  out += request.body;
  return out;
}

std::string SerializeHttpResponse(const HttpResponse& response) {
  std::string out;
  out.reserve(128 + response.body.size());
  out += "HTTP/1.1 ";
  out += std::to_string(response.status_code);
  out += ' ';
  out += response.reason.empty() ? "-" : response.reason;
  out += kCrlf;
  AppendHeaders(response.headers, response.body.size(), &out);
  out += response.body;
  return out;
}

StatusOr<size_t> TryParseHttpRequest(std::string_view data, HttpRequest* out,
                                     size_t max_request_bytes) {
  const size_t eol = data.find(kCrlf);
  if (eol == std::string_view::npos) {
    if (data.size() > kMaxHeaderBytes) {
      return Status::ParseError("http: request line exceeds 1 MiB");
    }
    return size_t{0};
  }
  const std::vector<std::string> parts =
      SplitWhitespace(data.substr(0, eol));
  if (parts.size() != 3 || !StartsWith(parts[2], "HTTP/1.")) {
    return Status::ParseError("http: malformed request line");
  }
  HttpRequest request;
  request.method = parts[0];
  request.target = parts[1];

  size_t body_start = 0;
  bool headers_done = false;
  SOFYA_RETURN_IF_ERROR(ParseHeaderBlock(data, eol + kCrlf.size(),
                                         &request.headers, &body_start,
                                         &headers_done));
  if (!headers_done) return size_t{0};

  // Framing guards (RFC 9112 §6.1): this parser only speaks Content-Length
  // requests, and the smuggling-shaped header combinations must die here,
  // before any server logic sees the message. Transfer-Encoding alone is
  // "we do not implement that" (501); Transfer-Encoding next to
  // Content-Length, or two Content-Length headers that disagree, is a
  // malformed — possibly hostile — message (400).
  const bool has_te =
      FindHeader(request.headers, "Transfer-Encoding") != nullptr;
  uint64_t length = 0;
  bool has_length = false;
  for (const HttpHeader& h : request.headers) {
    if (!EqualsIgnoreCase(h.name, "Content-Length")) continue;
    uint64_t parsed = 0;
    if (!ParseUint64(h.value, &parsed)) {
      return Status::ParseError("http: malformed Content-Length");
    }
    if (has_length && parsed != length) {
      return Status::ParseError(
          "http: conflicting duplicate Content-Length headers");
    }
    length = parsed;
    has_length = true;
  }
  if (has_te) {
    if (has_length) {
      return Status::ParseError(
          "http: request carries both Transfer-Encoding and Content-Length");
    }
    return Status::Unimplemented(
        "http: Transfer-Encoding is not supported on requests");
  }
  if (body_start > max_request_bytes ||
      length > max_request_bytes - body_start) {
    return Status::ResourceExhausted(StrFormat(
        "http: request declares a %llu-byte body after a %zu-byte head; "
        "the limit is %zu bytes",
        static_cast<unsigned long long>(length), body_start,
        max_request_bytes));
  }
  if (data.size() - body_start < length) return size_t{0};
  request.body = std::string(data.substr(body_start, length));
  *out = std::move(request);
  return body_start + length;
}

StatusOr<size_t> TryParseHttpResponse(std::string_view data, bool eof,
                                      HttpResponse* out) {
  const size_t eol = data.find(kCrlf);
  if (eol == std::string_view::npos) {
    if (data.size() > kMaxHeaderBytes) {
      return Status::ParseError("http: status line exceeds 1 MiB");
    }
    if (eof) return Status::Unavailable("http: truncated response");
    return size_t{0};
  }
  const std::string_view status_line = data.substr(0, eol);
  if (!StartsWith(status_line, "HTTP/1.")) {
    return Status::ParseError("http: malformed status line");
  }
  const std::vector<std::string> parts = SplitWhitespace(status_line);
  uint64_t code = 0;
  if (parts.size() < 2 || !ParseUint64(parts[1], &code) || code < 100 ||
      code > 599) {
    return Status::ParseError("http: malformed status code");
  }
  HttpResponse response;
  response.status_code = static_cast<int>(code);
  response.reason.clear();
  for (size_t i = 2; i < parts.size(); ++i) {
    if (!response.reason.empty()) response.reason += ' ';
    response.reason += parts[i];
  }

  size_t body_start = 0;
  bool headers_done = false;
  SOFYA_RETURN_IF_ERROR(ParseHeaderBlock(data, eol + kCrlf.size(),
                                         &response.headers, &body_start,
                                         &headers_done));
  if (!headers_done) {
    if (eof) return Status::Unavailable("http: truncated response headers");
    return size_t{0};
  }

  // Bodiless statuses first: 1xx, 204, 304 have no body by definition.
  if (response.status_code / 100 == 1 || response.status_code == 204 ||
      response.status_code == 304) {
    *out = std::move(response);
    return body_start;
  }

  const std::string* te = FindHeader(response.headers, "Transfer-Encoding");
  if (te != nullptr) {
    if (!EqualsIgnoreCase(TrimOws(*te), "chunked")) {
      return Status::ParseError("http: unsupported Transfer-Encoding " + *te);
    }
    size_t end = 0;
    bool body_done = false;
    SOFYA_RETURN_IF_ERROR(ParseChunkedBody(data, body_start, &response.body,
                                           &end, &body_done));
    if (!body_done) {
      if (eof) return Status::Unavailable("http: truncated chunked body");
      return size_t{0};
    }
    *out = std::move(response);
    return end;
  }

  if (const std::string* cl = FindHeader(response.headers, "Content-Length")) {
    uint64_t length = 0;
    if (!ParseUint64(*cl, &length)) {
      return Status::ParseError("http: malformed Content-Length");
    }
    if (data.size() - body_start < length) {
      if (eof) return Status::Unavailable("http: truncated response body");
      return size_t{0};
    }
    response.body = std::string(data.substr(body_start, length));
    *out = std::move(response);
    return body_start + length;
  }

  // Neither framing header: the body runs to connection close.
  if (!eof) return size_t{0};
  response.body = std::string(data.substr(body_start));
  *out = std::move(response);
  return data.size();
}

Status HttpResponseReader::BeginBody() {
  scanned_ = 0;
  if (response_.status_code / 100 == 1 || response_.status_code == 204 ||
      response_.status_code == 304) {
    state_ = State::kDone;
    return Status::OK();
  }
  const std::string* te = FindHeader(response_.headers, "Transfer-Encoding");
  if (te != nullptr) {
    if (!EqualsIgnoreCase(TrimOws(*te), "chunked")) {
      return Status::ParseError("http: unsupported Transfer-Encoding " + *te);
    }
    state_ = State::kChunkHeader;
    return Status::OK();
  }
  if (const std::string* cl = FindHeader(response_.headers, "Content-Length")) {
    if (!ParseUint64(*cl, &body_remaining_)) {
      return Status::ParseError("http: malformed Content-Length");
    }
    state_ = body_remaining_ == 0 ? State::kDone : State::kFixedBody;
    return Status::OK();
  }
  // No framing header: the body runs to connection close.
  state_ = State::kEofBody;
  ate_connection_ = true;
  return Status::OK();
}

Status HttpResponseReader::Feed(std::string_view data) {
  // `data` may be re-pointed at `tail_carry` after a line-oriented state
  // completes; by then the original view has always been fully consumed.
  std::string tail_carry;
  while (true) {
    switch (state_) {
      case State::kDone:
        leftover_ += data.size();
        return Status::OK();

      case State::kFixedBody: {
        const size_t take =
            static_cast<size_t>(std::min<uint64_t>(data.size(),
                                                   body_remaining_));
        response_.body.append(data.substr(0, take));
        body_remaining_ -= take;
        data.remove_prefix(take);
        if (body_remaining_ > 0) return Status::OK();  // data exhausted.
        state_ = State::kDone;
        continue;
      }

      case State::kEofBody:
        response_.body.append(data);
        return Status::OK();

      case State::kChunkData: {
        const size_t take =
            static_cast<size_t>(std::min<uint64_t>(data.size(),
                                                   body_remaining_));
        response_.body.append(data.substr(0, take));
        body_remaining_ -= take;
        data.remove_prefix(take);
        if (body_remaining_ > 0) return Status::OK();
        // Then the chunk's trailing CRLF, byte by byte (it can split
        // across reads).
        while (chunk_pad_ > 0 && !data.empty()) {
          const char expected = chunk_pad_ == 2 ? '\r' : '\n';
          if (data.front() != expected) {
            return Status::ParseError("http: chunk data not CRLF-terminated");
          }
          --chunk_pad_;
          data.remove_prefix(1);
        }
        if (chunk_pad_ > 0) return Status::OK();
        state_ = State::kChunkHeader;
        continue;
      }

      case State::kHeaders:
      case State::kChunkHeader:
      case State::kChunkTrailer: {
        // Line-oriented states buffer their (small) input.
        buffer_.append(data);
        data = {};
        if (buffer_.size() > kMaxHeaderBytes) {
          return Status::ParseError("http: header/chunk framing exceeds 1 MiB");
        }
        if (state_ == State::kHeaders) {
          const size_t start = scanned_ > 3 ? scanned_ - 3 : 0;
          const size_t blank = buffer_.find("\r\n\r\n", start);
          if (blank == std::string::npos) {
            scanned_ = buffer_.size();
            return Status::OK();
          }
          const std::string_view head(buffer_.data(), blank + 4);
          const size_t eol = head.find(kCrlf);
          const std::vector<std::string> parts =
              SplitWhitespace(head.substr(0, eol));
          uint64_t code = 0;
          if (parts.size() < 2 || !StartsWith(parts[0], "HTTP/1.") ||
              !ParseUint64(parts[1], &code) || code < 100 || code > 599) {
            return Status::ParseError("http: malformed status line");
          }
          response_.status_code = static_cast<int>(code);
          response_.reason.clear();
          for (size_t i = 2; i < parts.size(); ++i) {
            if (!response_.reason.empty()) response_.reason += ' ';
            response_.reason += parts[i];
          }
          size_t body_start = 0;
          bool headers_done = false;
          SOFYA_RETURN_IF_ERROR(ParseHeaderBlock(head, eol + kCrlf.size(),
                                                 &response_.headers,
                                                 &body_start, &headers_done));
          if (!headers_done || body_start != head.size()) {
            return Status::ParseError("http: malformed header block");
          }
          tail_carry = buffer_.substr(blank + 4);
          buffer_.clear();
          SOFYA_RETURN_IF_ERROR(BeginBody());
          data = tail_carry;
          continue;
        }
        if (state_ == State::kChunkHeader) {
          const size_t start = scanned_ > 1 ? scanned_ - 1 : 0;
          const size_t eol = buffer_.find(kCrlf, start);
          if (eol == std::string::npos) {
            scanned_ = buffer_.size();
            return Status::OK();
          }
          std::string_view size_field(buffer_.data(), eol);
          const size_t semi = size_field.find(';');
          if (semi != std::string_view::npos) {
            size_field = size_field.substr(0, semi);
          }
          uint64_t chunk_size = 0;
          if (!ParseHex64(TrimOws(size_field), &chunk_size)) {
            return Status::ParseError("http: malformed chunk size");
          }
          tail_carry = buffer_.substr(eol + kCrlf.size());
          buffer_.clear();
          scanned_ = 0;
          if (chunk_size == 0) {
            state_ = State::kChunkTrailer;
          } else {
            body_remaining_ = chunk_size;
            chunk_pad_ = 2;
            state_ = State::kChunkData;
          }
          data = tail_carry;
          continue;
        }
        // kChunkTrailer: skip trailer lines until the blank line.
        while (true) {
          const size_t eol = buffer_.find(kCrlf);
          if (eol == std::string::npos) {
            scanned_ = buffer_.size();
            return Status::OK();
          }
          const bool blank = eol == 0;
          buffer_.erase(0, eol + kCrlf.size());
          if (blank) {
            leftover_ += buffer_.size();
            buffer_.clear();
            state_ = State::kDone;
            break;
          }
        }
        continue;
      }
    }
  }
}

Status HttpResponseReader::FinishEof() {
  if (state_ == State::kDone) return Status::OK();
  if (state_ == State::kEofBody) {
    state_ = State::kDone;
    return Status::OK();
  }
  return Status::Unavailable("http: truncated response");
}

StatusOr<ParsedUrl> ParseUrl(std::string_view url) {
  const size_t scheme_end = url.find("://");
  if (scheme_end == std::string_view::npos) {
    return Status::InvalidArgument("url: missing scheme in '" +
                                   std::string(url) + "'");
  }
  ParsedUrl parsed;
  parsed.scheme = std::string(url.substr(0, scheme_end));
  std::transform(parsed.scheme.begin(), parsed.scheme.end(),
                 parsed.scheme.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (parsed.scheme == "https") {
    return Status::Unimplemented(
        "url: https endpoints are not supported (no TLS stack); use http:// "
        "or a local TLS-terminating proxy");
  }
  if (parsed.scheme != "http") {
    return Status::InvalidArgument("url: unsupported scheme '" +
                                   parsed.scheme + "'");
  }
  std::string_view rest = url.substr(scheme_end + 3);
  const size_t path_start = rest.find('/');
  std::string_view authority =
      path_start == std::string_view::npos ? rest : rest.substr(0, path_start);
  parsed.target = path_start == std::string_view::npos
                      ? "/"
                      : std::string(rest.substr(path_start));
  if (authority.find('@') != std::string_view::npos) {
    return Status::InvalidArgument("url: userinfo not supported");
  }
  if (!authority.empty() && authority.front() == '[') {
    // IPv6 literal: [::1] or [::1]:8890. The brackets are URL syntax only;
    // getaddrinfo wants the bare address.
    const size_t close = authority.find(']');
    if (close == std::string_view::npos) {
      return Status::InvalidArgument("url: unterminated IPv6 literal");
    }
    parsed.host = std::string(authority.substr(1, close - 1));
    std::string_view rest_auth = authority.substr(close + 1);
    if (!rest_auth.empty()) {
      uint64_t port = 0;
      if (rest_auth.front() != ':' ||
          !ParseUint64(rest_auth.substr(1), &port) || port == 0 ||
          port > 65535) {
        return Status::InvalidArgument("url: malformed port");
      }
      parsed.port = static_cast<uint16_t>(port);
    }
    if (parsed.host.empty()) {
      return Status::InvalidArgument("url: empty host");
    }
    return parsed;
  }
  const size_t colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    uint64_t port = 0;
    if (!ParseUint64(authority.substr(colon + 1), &port) || port == 0 ||
        port > 65535) {
      return Status::InvalidArgument("url: malformed port");
    }
    parsed.port = static_cast<uint16_t>(port);
    authority = authority.substr(0, colon);
  }
  if (authority.empty()) {
    return Status::InvalidArgument("url: empty host");
  }
  parsed.host = std::string(authority);
  return parsed;
}

namespace {

constexpr char kHexDigits[] = "0123456789ABCDEF";

bool IsUnreserved(unsigned char c) {
  return std::isalnum(c) || c == '-' || c == '.' || c == '_' || c == '~';
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string PercentEncodeImpl(std::string_view raw, bool space_as_plus) {
  std::string out;
  out.reserve(raw.size());
  for (const char ch : raw) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (IsUnreserved(c)) {
      out += ch;
    } else if (space_as_plus && c == ' ') {
      out += '+';
    } else {
      out += '%';
      out += kHexDigits[c >> 4];
      out += kHexDigits[c & 0xF];
    }
  }
  return out;
}

}  // namespace

std::string PercentEncode(std::string_view raw) {
  return PercentEncodeImpl(raw, /*space_as_plus=*/false);
}

std::string FormUrlEncode(std::string_view raw) {
  return PercentEncodeImpl(raw, /*space_as_plus=*/true);
}

StatusOr<std::string> PercentDecode(std::string_view encoded,
                                    bool plus_as_space) {
  std::string out;
  out.reserve(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    const char c = encoded[i];
    if (c == '%') {
      if (encoded.size() - i < 3) {
        return Status::ParseError("url: truncated percent escape");
      }
      const int hi = HexValue(encoded[i + 1]);
      const int lo = HexValue(encoded[i + 2]);
      if (hi < 0 || lo < 0) {
        return Status::ParseError("url: malformed percent escape '" +
                                  std::string(encoded.substr(i, 3)) + "'");
      }
      out += static_cast<char>((hi << 4) | lo);
      i += 2;
    } else if (plus_as_space && c == '+') {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

StatusOr<std::vector<QueryParam>> ParseQueryString(std::string_view query) {
  std::vector<QueryParam> params;
  size_t pos = 0;
  while (pos <= query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view field = query.substr(pos, amp - pos);
    pos = amp + 1;
    if (field.empty()) {
      if (amp == query.size()) break;
      continue;
    }
    const size_t eq = field.find('=');
    const std::string_view raw_key =
        eq == std::string_view::npos ? field : field.substr(0, eq);
    const std::string_view raw_value =
        eq == std::string_view::npos ? std::string_view{}
                                     : field.substr(eq + 1);
    SOFYA_ASSIGN_OR_RETURN(std::string key,
                           PercentDecode(raw_key, /*plus_as_space=*/true));
    SOFYA_ASSIGN_OR_RETURN(std::string value,
                           PercentDecode(raw_value, /*plus_as_space=*/true));
    params.push_back(QueryParam{std::move(key), std::move(value)});
    if (amp == query.size()) break;
  }
  return params;
}

void SplitTarget(std::string_view target, std::string_view* path,
                 std::string_view* query) {
  const size_t qmark = target.find('?');
  if (qmark == std::string_view::npos) {
    *path = target;
    *query = {};
  } else {
    *path = target.substr(0, qmark);
    *query = target.substr(qmark + 1);
  }
}

}  // namespace sofya
