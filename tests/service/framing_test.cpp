// Property tests for the socket server's jsonl framing: a message
// stream split at ARBITRARY byte boundaries (as TCP is free to do) must
// reassemble into exactly the original lines, in order, regardless of
// how the chunking dice land.
#include "service/socket_server.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/rng.hpp"

namespace gmm::service {
namespace {

std::vector<std::string> split_and_feed(const std::string& stream,
                                        support::Rng& rng) {
  LineSplitter splitter;
  std::vector<std::string> lines;
  std::size_t offset = 0;
  while (offset < stream.size()) {
    // Bias toward tiny chunks (the adversarial case), with occasional
    // large reads like a real socket under load.
    const std::size_t max_chunk = rng.bernoulli(0.2) ? 4096 : 7;
    const std::size_t chunk = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(max_chunk)));
    const std::size_t n = std::min(chunk, stream.size() - offset);
    splitter.feed(stream.data() + offset, n);
    offset += n;
    // Drain opportunistically mid-stream, as the event loop does.
    while (auto line = splitter.next_line()) lines.push_back(*line);
  }
  while (auto line = splitter.next_line()) lines.push_back(*line);
  EXPECT_EQ(splitter.pending_bytes(), 0u);  // stream ended on a newline
  return lines;
}

TEST(Framing, ReassemblesAcrossArbitraryBoundaries) {
  // 300 seeds: random message sets, random chunkings.  Any mismatch
  // prints its seed for a deterministic local repro.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    support::Rng rng(seed);
    std::vector<std::string> expected;
    const int count = static_cast<int>(rng.uniform_int(1, 40));
    expected.reserve(static_cast<std::size_t>(count));
    std::string stream;
    for (int i = 0; i < count; ++i) {
      // Lines of wildly varying length, including empty ones and bytes
      // that look like JSON but are never inspected by the framer.
      const std::size_t length = static_cast<std::size_t>(
          rng.uniform_int(0, rng.bernoulli(0.1) ? 20000 : 120));
      std::string line;
      line.reserve(length);
      for (std::size_t j = 0; j < length; ++j) {
        // Any byte except '\n' (the frame delimiter) and '\r' (stripped
        // when trailing, so a line must not end with one).
        char c = static_cast<char>(rng.uniform_int(1, 255));
        if (c == '\n' || c == '\r') c = ' ';
        line.push_back(c);
      }
      stream += line;
      stream.push_back('\n');
      expected.push_back(std::move(line));
    }
    const std::vector<std::string> got = split_and_feed(stream, rng);
    ASSERT_EQ(got, expected) << "seed " << seed;
  }
}

TEST(Framing, HandlesPartialTailAndCrLf) {
  LineSplitter splitter;
  const char data[] = "alpha\r\nbeta\ngam";
  splitter.feed(data, sizeof(data) - 1);
  auto line = splitter.next_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "alpha");  // trailing \r stripped
  line = splitter.next_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "beta");
  EXPECT_FALSE(splitter.next_line().has_value());
  EXPECT_FALSE(splitter.has_line());
  EXPECT_EQ(splitter.pending_bytes(), 3u);  // "gam" awaits its newline
  splitter.feed("ma\n", 3);
  ASSERT_TRUE(splitter.has_line());
  EXPECT_EQ(*splitter.next_line(), "gamma");
  // End of input completes a final line that lacks its newline, and
  // adds no empty line when nothing is buffered.
  splitter.feed("delta", 5);
  EXPECT_FALSE(splitter.has_line());
  splitter.end_input();
  ASSERT_TRUE(splitter.has_line());
  EXPECT_EQ(*splitter.next_line(), "delta");
  splitter.end_input();
  EXPECT_FALSE(splitter.has_line());
}

TEST(Framing, ByteByByteFeedMatchesWholeFeed) {
  const std::string stream = "{\"id\":\"r1\"}\n\n{\"id\":\"r2\"}\n";
  LineSplitter whole;
  whole.feed(stream.data(), stream.size());
  LineSplitter dribble;
  std::vector<std::string> got;
  for (const char c : stream) {
    dribble.feed(&c, 1);
    while (auto line = dribble.next_line()) got.push_back(*line);
  }
  std::vector<std::string> expected;
  while (auto line = whole.next_line()) expected.push_back(*line);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(got.size(), 3u);  // the empty line frames too
}

TEST(Framing, EndpointParsing) {
  SocketEndpoint e = parse_socket_endpoint("/tmp/gmm.sock");
  ASSERT_TRUE(e.ok) << e.error;
  EXPECT_TRUE(e.is_unix);
  EXPECT_EQ(e.path, "/tmp/gmm.sock");

  e = parse_socket_endpoint("relative.sock");  // no ':' -> a unix path
  ASSERT_TRUE(e.ok);
  EXPECT_TRUE(e.is_unix);

  e = parse_socket_endpoint("localhost:0");
  ASSERT_TRUE(e.ok) << e.error;
  EXPECT_FALSE(e.is_unix);
  EXPECT_EQ(e.host, "localhost");
  EXPECT_EQ(e.port, 0);

  e = parse_socket_endpoint("127.0.0.1:9000");
  ASSERT_TRUE(e.ok);
  EXPECT_EQ(e.host, "127.0.0.1");
  EXPECT_EQ(e.port, 9000);

  EXPECT_FALSE(parse_socket_endpoint("").ok);
  EXPECT_FALSE(parse_socket_endpoint(":123").ok);
  EXPECT_FALSE(parse_socket_endpoint("host:").ok);
  EXPECT_FALSE(parse_socket_endpoint("host:66000").ok);
  EXPECT_FALSE(parse_socket_endpoint("host:12x").ok);
}

}  // namespace
}  // namespace gmm::service
