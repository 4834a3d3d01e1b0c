// Unit tests for the HTTP message layer (net/http.h): serialization,
// incremental parsing (Content-Length, chunked, read-to-EOF), URL parsing,
// and the loopback transport + client pool plumbing.

#include "net/http.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/http_client.h"
#include "net/loopback_transport.h"

namespace sofya {
namespace {

// ------------------------------------------------------------ serialization

TEST(HttpMessageTest, SerializeRequestAddsContentLength) {
  HttpRequest request;
  request.method = "POST";
  request.target = "/sparql";
  request.headers = {{"Host", "example.org"}, {"Accept", "text/plain"}};
  request.body = "SELECT";
  const std::string wire = SerializeHttpRequest(request);
  EXPECT_EQ(wire,
            "POST /sparql HTTP/1.1\r\n"
            "Host: example.org\r\n"
            "Accept: text/plain\r\n"
            "Content-Length: 6\r\n"
            "\r\n"
            "SELECT");
}

TEST(HttpMessageTest, RequestRoundTrip) {
  HttpRequest request;
  request.target = "/q";
  request.headers = {{"Host", "h"}};
  request.body = "hello body";
  HttpRequest reparsed;
  const std::string wire = SerializeHttpRequest(request);
  auto consumed = TryParseHttpRequest(wire, &reparsed);
  ASSERT_TRUE(consumed.ok()) << consumed.status().ToString();
  EXPECT_EQ(*consumed, wire.size());
  EXPECT_EQ(reparsed.method, "POST");
  EXPECT_EQ(reparsed.target, "/q");
  EXPECT_EQ(reparsed.body, "hello body");
}

TEST(HttpMessageTest, IncrementalRequestParseNeedsAllBytes) {
  HttpRequest request;
  request.headers = {{"Host", "h"}};
  request.body = "0123456789";
  const std::string wire = SerializeHttpRequest(request);
  HttpRequest out;
  for (size_t cut = 1; cut < wire.size(); ++cut) {
    auto consumed = TryParseHttpRequest(wire.substr(0, cut), &out);
    ASSERT_TRUE(consumed.ok()) << "cut " << cut;
    EXPECT_EQ(*consumed, 0u) << "cut " << cut;
  }
  auto consumed = TryParseHttpRequest(wire, &out);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(*consumed, wire.size());
}

TEST(HttpMessageTest, ResponseContentLengthParse) {
  const std::string wire =
      "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloEXTRA";
  HttpResponse response;
  auto consumed = TryParseHttpResponse(wire, /*eof=*/false, &response);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(*consumed, wire.size() - 5);  // "EXTRA" not consumed.
  EXPECT_EQ(response.status_code, 200);
  EXPECT_EQ(response.reason, "OK");
  EXPECT_EQ(response.body, "hello");
}

TEST(HttpMessageTest, ResponseChunkedParse) {
  const std::string wire =
      "HTTP/1.1 200 OK\r\n"
      "Transfer-Encoding: chunked\r\n"
      "\r\n"
      "4\r\nWiki\r\n"
      "5\r\npedia\r\n"
      "0\r\n"
      "\r\n";
  HttpResponse response;
  auto consumed = TryParseHttpResponse(wire, /*eof=*/false, &response);
  ASSERT_TRUE(consumed.ok()) << consumed.status().ToString();
  EXPECT_EQ(*consumed, wire.size());
  EXPECT_EQ(response.body, "Wikipedia");
  // Partial chunked input: need more.
  for (size_t cut = 1; cut + 1 < wire.size(); ++cut) {
    HttpResponse partial;
    auto c = TryParseHttpResponse(wire.substr(0, cut), false, &partial);
    if (c.ok()) {
      EXPECT_EQ(*c, 0u) << "cut " << cut;
    }
  }
}

TEST(HttpMessageTest, ResponseReadToEofFraming) {
  const std::string wire = "HTTP/1.1 200 OK\r\n\r\nno framing header";
  HttpResponse response;
  auto need_more = TryParseHttpResponse(wire, /*eof=*/false, &response);
  ASSERT_TRUE(need_more.ok());
  EXPECT_EQ(*need_more, 0u);
  auto done = TryParseHttpResponse(wire, /*eof=*/true, &response);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(*done, wire.size());
  EXPECT_EQ(response.body, "no framing header");
}

TEST(HttpMessageTest, BodilessStatusesCompleteWithoutLength) {
  HttpResponse response;
  auto consumed =
      TryParseHttpResponse("HTTP/1.1 204 No Content\r\n\r\n", false,
                           &response);
  ASSERT_TRUE(consumed.ok());
  EXPECT_GT(*consumed, 0u);
  EXPECT_EQ(response.status_code, 204);
  EXPECT_TRUE(response.body.empty());
}

TEST(HttpMessageTest, TruncatedResponseAtEofIsUnavailable) {
  HttpResponse response;
  auto truncated_headers =
      TryParseHttpResponse("HTTP/1.1 200 OK\r\nContent-Le", true, &response);
  EXPECT_TRUE(truncated_headers.status().IsUnavailable());
  auto truncated_body = TryParseHttpResponse(
      "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhal", true, &response);
  EXPECT_TRUE(truncated_body.status().IsUnavailable());
}

TEST(HttpMessageTest, MalformedMessagesAreParseErrors) {
  HttpResponse response;
  EXPECT_TRUE(TryParseHttpResponse("BOGUS/9 200\r\n\r\n", false, &response)
                  .status()
                  .IsParseError());
  EXPECT_TRUE(TryParseHttpResponse(
                  "HTTP/1.1 99999 X\r\n\r\n", false, &response)
                  .status()
                  .IsParseError());
  EXPECT_TRUE(TryParseHttpResponse(
                  "HTTP/1.1 200 OK\r\nContent-Length: nope\r\n\r\n", false,
                  &response)
                  .status()
                  .IsParseError());
  HttpRequest request;
  EXPECT_TRUE(TryParseHttpRequest("GET\r\n\r\n", &request)
                  .status()
                  .IsParseError());
  EXPECT_TRUE(TryParseHttpRequest(
                  "GET / HTTP/1.1\r\nBad Header : x\r\n\r\n", &request)
                  .status()
                  .IsParseError());
}

TEST(HttpMessageTest, HeaderLookupIsCaseInsensitive) {
  std::vector<HttpHeader> headers = {{"Content-Type", "text/html"}};
  ASSERT_NE(FindHeader(headers, "content-type"), nullptr);
  EXPECT_EQ(*FindHeader(headers, "CONTENT-TYPE"), "text/html");
  EXPECT_EQ(FindHeader(headers, "Accept"), nullptr);
  EXPECT_FALSE(WantsClose(headers));
  headers.push_back({"Connection", "Close"});
  EXPECT_TRUE(WantsClose(headers));
}

// ------------------------------------------------------- streaming reader

TEST(HttpResponseReaderTest, ContentLengthAcrossArbitrarySplits) {
  const std::string wire =
      "HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\nhello world";
  for (size_t split = 0; split <= wire.size(); ++split) {
    HttpResponseReader reader;
    ASSERT_TRUE(reader.Feed(wire.substr(0, split)).ok()) << split;
    ASSERT_TRUE(reader.Feed(wire.substr(split)).ok()) << split;
    ASSERT_TRUE(reader.done()) << split;
    EXPECT_EQ(reader.response().body, "hello world");
    EXPECT_EQ(reader.leftover(), 0u);
    EXPECT_FALSE(reader.ate_connection());
  }
}

TEST(HttpResponseReaderTest, ChunkedOneByteAtATime) {
  const std::string wire =
      "HTTP/1.1 200 OK\r\n"
      "Transfer-Encoding: chunked\r\n"
      "\r\n"
      "4\r\nWiki\r\n"
      "5;ext=1\r\npedia\r\n"
      "0\r\n"
      "Trailer: x\r\n"
      "\r\n";
  HttpResponseReader reader;
  for (const char c : wire) {
    ASSERT_FALSE(reader.done());
    ASSERT_TRUE(reader.Feed({&c, 1}).ok());
  }
  ASSERT_TRUE(reader.done());
  EXPECT_EQ(reader.response().body, "Wikipedia");
  EXPECT_EQ(reader.leftover(), 0u);
}

TEST(HttpResponseReaderTest, LeftoverBytesMarkDesync) {
  HttpResponseReader reader;
  ASSERT_TRUE(reader
                  .Feed("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n"
                        "okSPILL")
                  .ok());
  ASSERT_TRUE(reader.done());
  EXPECT_EQ(reader.response().body, "ok");
  EXPECT_EQ(reader.leftover(), 5u);  // "SPILL" belongs to no request.
}

TEST(HttpResponseReaderTest, EofFramedBodyConsumesConnection) {
  HttpResponseReader reader;
  ASSERT_TRUE(reader.Feed("HTTP/1.1 200 OK\r\n\r\npart1 ").ok());
  ASSERT_TRUE(reader.Feed("part2").ok());
  ASSERT_FALSE(reader.done());
  ASSERT_TRUE(reader.FinishEof().ok());
  ASSERT_TRUE(reader.done());
  EXPECT_EQ(reader.response().body, "part1 part2");
  EXPECT_TRUE(reader.ate_connection());
}

TEST(HttpResponseReaderTest, TruncationAndGarbageAreErrors) {
  HttpResponseReader truncated;
  ASSERT_TRUE(
      truncated.Feed("HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nhal").ok());
  EXPECT_TRUE(truncated.FinishEof().IsUnavailable());

  HttpResponseReader garbage;
  EXPECT_TRUE(garbage.Feed("SPARQL/9 hi\r\n\r\n").IsParseError());

  HttpResponseReader bad_chunk;
  ASSERT_TRUE(bad_chunk
                  .Feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
                        "\r\n")
                  .ok());
  EXPECT_TRUE(bad_chunk.Feed("zz\r\n").IsParseError());
}

// --------------------------------------------------------------------- URLs

TEST(UrlTest, ParsesHostPortTarget) {
  auto url = ParseUrl("http://dbpedia.org/sparql");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->host, "dbpedia.org");
  EXPECT_EQ(url->port, 80);
  EXPECT_EQ(url->target, "/sparql");

  auto with_port = ParseUrl("http://localhost:8890/sparql?default-graph=x");
  ASSERT_TRUE(with_port.ok());
  EXPECT_EQ(with_port->host, "localhost");
  EXPECT_EQ(with_port->port, 8890);
  EXPECT_EQ(with_port->target, "/sparql?default-graph=x");

  auto bare = ParseUrl("http://example.org");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->target, "/");

  auto v6 = ParseUrl("http://[::1]:8890/sparql");
  ASSERT_TRUE(v6.ok()) << v6.status().ToString();
  EXPECT_EQ(v6->host, "::1");  // Brackets stripped for getaddrinfo.
  EXPECT_EQ(v6->port, 8890);
  auto v6_bare = ParseUrl("http://[2001:db8::2]/q");
  ASSERT_TRUE(v6_bare.ok());
  EXPECT_EQ(v6_bare->host, "2001:db8::2");
  EXPECT_EQ(v6_bare->port, 80);
  EXPECT_TRUE(ParseUrl("http://[::1/q").status().IsInvalidArgument());
}

TEST(UrlTest, RejectsUnsupportedForms) {
  EXPECT_TRUE(ParseUrl("dbpedia.org/sparql").status().IsInvalidArgument());
  EXPECT_TRUE(ParseUrl("ftp://x.org/").status().IsInvalidArgument());
  EXPECT_TRUE(ParseUrl("https://x.org/").status().IsUnimplemented());
  EXPECT_TRUE(ParseUrl("http://:80/").status().IsInvalidArgument());
  EXPECT_TRUE(ParseUrl("http://x.org:0/").status().IsInvalidArgument());
  EXPECT_TRUE(ParseUrl("http://x.org:99999/").status().IsInvalidArgument());
  EXPECT_TRUE(ParseUrl("http://user@x.org/").status().IsInvalidArgument());
}

// ---------------------------------------------------- client over loopback

TEST(HttpClientTest, RoundTripOverLoopback) {
  LoopbackTransport transport([](const HttpRequest& request) {
    HttpResponse response;
    response.body = "echo:" + request.body;
    return response;
  });
  HttpClient client(&transport, ParseUrl("http://mock.test/x").value());
  HttpRequest request;
  request.body = "ping";
  auto response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(response->body, "echo:ping");
  // Keep-alive: a second exchange reuses the connection.
  ASSERT_TRUE(client.RoundTrip(request).ok());
  EXPECT_EQ(transport.connections_opened(), 1u);
}

TEST(HttpClientTest, HostHeaderCarriesPort) {
  std::string seen_host;
  LoopbackTransport transport([&seen_host](const HttpRequest& request) {
    if (const std::string* host = FindHeader(request.headers, "Host")) {
      seen_host = *host;
    }
    return HttpResponse{};
  });
  HttpClient client(&transport,
                    ParseUrl("http://mock.test:8890/sparql").value());
  ASSERT_TRUE(client.RoundTrip(HttpRequest{}).ok());
  EXPECT_EQ(seen_host, "mock.test:8890");
}

TEST(HttpClientTest, ConnectFailureSurfacesUnavailable) {
  LoopbackTransport transport(
      [](const HttpRequest&) { return HttpResponse{}; });
  transport.FailNextConnects(1);
  HttpClient client(&transport, ParseUrl("http://mock.test/").value());
  EXPECT_TRUE(client.RoundTrip(HttpRequest{}).status().IsUnavailable());
  EXPECT_TRUE(client.RoundTrip(HttpRequest{}).ok());  // Recovers.
}

TEST(HttpClientTest, OversizedResponseIsRejected) {
  LoopbackTransport transport([](const HttpRequest&) {
    HttpResponse response;
    response.body.assign(4096, 'x');
    return response;
  });
  HttpClientOptions options;
  options.max_response_bytes = 1024;
  HttpClient client(&transport, ParseUrl("http://mock.test/").value(),
                    options);
  EXPECT_TRUE(
      client.RoundTrip(HttpRequest{}).status().IsResourceExhausted());
}

// ----------------------------------------------- request framing guards

TEST(HttpFramingGuardTest, TransferEncodingRequestIsUnimplemented) {
  HttpRequest request;
  auto result = TryParseHttpRequest(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "0\r\n\r\n",
      &request);
  EXPECT_TRUE(result.status().IsUnimplemented()) << result.status();
}

TEST(HttpFramingGuardTest, TransferEncodingPlusContentLengthIsRejected) {
  // The classic request-smuggling shape (RFC 9112 §6.1): two framings in
  // one message, so two parsers can disagree about where it ends.
  HttpRequest request;
  auto result = TryParseHttpRequest(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
      "Content-Length: 4\r\n\r\nbody",
      &request);
  EXPECT_TRUE(result.status().IsParseError()) << result.status();
}

TEST(HttpFramingGuardTest, ConflictingDuplicateContentLengthIsRejected) {
  HttpRequest request;
  auto result = TryParseHttpRequest(
      "POST / HTTP/1.1\r\nContent-Length: 4\r\n"
      "Content-Length: 11\r\n\r\nbody",
      &request);
  EXPECT_TRUE(result.status().IsParseError()) << result.status();
}

TEST(HttpFramingGuardTest, AgreeingDuplicateContentLengthParses) {
  // Identical duplicates are legal-enough (RFC 9110 allows collapsing
  // them); only *conflicting* values are a smuggling vector.
  HttpRequest request;
  auto result = TryParseHttpRequest(
      "POST / HTTP/1.1\r\nContent-Length: 4\r\n"
      "Content-Length: 4\r\n\r\nbody",
      &request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(request.body, "body");
}

TEST(HttpFramingGuardTest, DeclaredSizeOverLimitFailsOnTheHead) {
  // The head alone decides: no body byte has arrived yet.
  const std::string head = "POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n";
  HttpRequest request;
  auto over = TryParseHttpRequest(head, &request, head.size() + 99);
  EXPECT_TRUE(over.status().IsResourceExhausted()) << over.status();
  auto at_limit = TryParseHttpRequest(head, &request, head.size() + 100);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status();
  EXPECT_EQ(*at_limit, 0u);  // Within the limit: wait for the body.
}

// ---------------------------------------- percent / form-urlencoded codecs

TEST(UrlCodecTest, PercentEncodeCoversReservedAndPassesUnreserved) {
  EXPECT_EQ(PercentEncode("AZaz09-._~"), "AZaz09-._~");
  EXPECT_EQ(PercentEncode("a b&c=d?e"), "a%20b%26c%3Dd%3Fe");
  EXPECT_EQ(PercentEncode("100%"), "100%25");
}

TEST(UrlCodecTest, FormEncodeUsesPlusForSpace) {
  EXPECT_EQ(FormUrlEncode("SELECT ?s WHERE"), "SELECT+%3Fs+WHERE");
}

TEST(UrlCodecTest, DecodeRoundTripsUtf8Bytes) {
  const std::string raw = "caf\xC3\xA9 \xE2\x82\xAC+?&=%";
  auto decoded = PercentDecode(PercentEncode(raw));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, raw);
  auto form = PercentDecode(FormUrlEncode(raw), /*plus_as_space=*/true);
  ASSERT_TRUE(form.ok()) << form.status();
  EXPECT_EQ(*form, raw);
}

TEST(UrlCodecTest, PlusIsSpaceOnlyInFormMode) {
  EXPECT_EQ(PercentDecode("a+b").value(), "a+b");
  EXPECT_EQ(PercentDecode("a+b", /*plus_as_space=*/true).value(), "a b");
}

TEST(UrlCodecTest, TruncatedAndMalformedEscapesAreRejected) {
  EXPECT_TRUE(PercentDecode("%").status().IsParseError());
  EXPECT_TRUE(PercentDecode("abc%A").status().IsParseError());
  EXPECT_TRUE(PercentDecode("%zz").status().IsParseError());
  EXPECT_TRUE(PercentDecode("ok%2").status().IsParseError());
}

TEST(UrlCodecTest, ParseQueryStringDecodesOrderedPairs) {
  auto params = ParseQueryString("query=SELECT+%3Fs&default-graph-uri=&x");
  ASSERT_TRUE(params.ok()) << params.status();
  ASSERT_EQ(params->size(), 3u);
  EXPECT_EQ((*params)[0].key, "query");
  EXPECT_EQ((*params)[0].value, "SELECT ?s");
  EXPECT_EQ((*params)[1].key, "default-graph-uri");
  EXPECT_EQ((*params)[1].value, "");
  EXPECT_EQ((*params)[2].key, "x");
  EXPECT_EQ((*params)[2].value, "");

  EXPECT_TRUE(ParseQueryString("a=%GG").status().IsParseError());
}

TEST(UrlCodecTest, SplitTargetSeparatesPathAndQuery) {
  std::string_view path, query;
  SplitTarget("/sparql?query=x&y=1", &path, &query);
  EXPECT_EQ(path, "/sparql");
  EXPECT_EQ(query, "query=x&y=1");
  SplitTarget("/sparql", &path, &query);
  EXPECT_EQ(path, "/sparql");
  EXPECT_EQ(query, "");
}

}  // namespace
}  // namespace sofya
