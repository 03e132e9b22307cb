#include "obs/json_parse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json_writer.h"
#include "util/rng.h"

namespace supa::obs {
namespace {

/// Parses `text`, failing the test with the reader's error when it does
/// not parse.
JsonValue MustParse(std::string_view text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &v, &error)) << error;
  return v;
}

bool Parses(std::string_view text) {
  JsonValue v;
  return ParseJson(text, &v, nullptr);
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(MustParse("null").is_null());
  EXPECT_TRUE(MustParse("true").bool_value());
  EXPECT_FALSE(MustParse("false").bool_value());
  EXPECT_DOUBLE_EQ(MustParse("42").number_value(), 42.0);
  EXPECT_DOUBLE_EQ(MustParse("-1.5e3").number_value(), -1500.0);
  EXPECT_EQ(MustParse("\"hi\"").string_value(), "hi");
}

TEST(JsonParseTest, NestedContainers) {
  const JsonValue root =
      MustParse(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
  ASSERT_TRUE(root.is_object());
  const JsonValue* a = root.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->array()[1].number_value(), 2.0);
  EXPECT_EQ(a->array()[2].Find("b")->string_value(), "c");
  EXPECT_TRUE(root.Find("d")->Find("e")->is_null());
  EXPECT_EQ(root.Find("d")->Find("missing"), nullptr);
  EXPECT_EQ(a->Find("b"), nullptr);  // an array is not an object
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(MustParse(R"("a\"b\\c\ndAé")").string_value(),
            "a\"b\\c\ndA\xC3\xA9");
}

TEST(JsonParseTest, SurrogatePairs) {
  // U+1F600 as 😀 -> 4-byte UTF-8.
  EXPECT_EQ(MustParse(R"("😀")").string_value(), "\xF0\x9F\x98\x80");
  EXPECT_FALSE(Parses(R"("\uD83D")"));  // unpaired high surrogate
  EXPECT_FALSE(Parses(R"("\uDE00")"));  // unpaired low surrogate
}

TEST(JsonParseTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "1.2.3", "\"x",
        "[1] trailing", "{'a': 1}", "nan", "+1"}) {
    EXPECT_FALSE(Parses(bad)) << bad;
  }
  // A failed parse names its offset and leaves the output as it was.
  JsonValue kept = MustParse("\"kept\"");
  std::string error;
  EXPECT_FALSE(ParseJson("[1, }", &kept, &error));
  EXPECT_EQ(error, "JSON: expected digit at offset 4");
  EXPECT_EQ(kept.string_value(), "kept");
}

TEST(JsonParseTest, RoundTripsJsonWriterOutput) {
  // The parser must accept everything our writer emits, so any export
  // can be read back (the admin-server tests read /statusz, /profilez and
  // /modelz this way).
  JsonWriter w;
  w.BeginObject();
  w.Field("title", std::string_view("fig5 \"quoted\" \\ \n"));
  w.Key("samples").BeginObject();
  w.Key("edges_per_sec").BeginArray();
  w.Double(1712.25).Double(1698.0).Double(1723.9);
  w.EndArray();
  w.EndObject();
  w.Field("nan_becomes_null", std::numeric_limits<double>::quiet_NaN());
  w.EndObject();
  const JsonValue v = MustParse(w.str());
  EXPECT_EQ(v.Find("title")->string_value(), "fig5 \"quoted\" \\ \n");
  const JsonValue* samples = v.Find("samples")->Find("edges_per_sec");
  ASSERT_NE(samples, nullptr);
  ASSERT_EQ(samples->array().size(), 3u);
  EXPECT_DOUBLE_EQ(samples->array()[0].number_value(), 1712.25);
  EXPECT_TRUE(v.Find("nan_becomes_null")->is_null());
}

// ParseJson reads POST /recommend bodies, bytes from the network, so it is
// fuzzed: fixed-seed mutations of a seed corpus must each parse, or fail
// with an error naming a byte offset inside the input. The sanitize CI job
// runs this under ASan/UBSan, where an out-of-bounds read or a stack
// overflow on deep nesting would also fail it.
enum Mutation { kBitFlip, kTruncate, kSplice, kRepeat, kBracketRun,
                kNumMutations };

// The admin server's default body cap (AdminServerOptions::max_body_bytes):
// no /recommend body is longer.
constexpr size_t kMaxBody = 64 << 10;

/// Applies mutation `kind` to `bytes`, never growing it past kMaxBody;
/// `other` is another seed document, the source of spliced ranges.
std::string Mutate(Mutation kind, const std::string& bytes,
                   const std::string& other, Rng& rng) {
  std::string out = bytes;
  if (out.empty()) return out;
  switch (kind) {
    case kBitFlip: {
      const size_t at = rng.Index(out.size());
      out[at] = static_cast<char>(out[at] ^ (1u << rng.Index(8)));
      break;
    }
    case kTruncate:
      out.resize(rng.Index(out.size()));
      break;
    case kSplice: {
      const size_t len = 1 + rng.Index(std::min(out.size(), other.size()));
      const size_t from = rng.Index(other.size() - len + 1);
      const size_t to = rng.Index(out.size() - len + 1);
      out.replace(to, len, other, from, len);
      break;
    }
    case kRepeat: {
      const size_t len = 1 + rng.Index(out.size());
      const size_t at = rng.Index(out.size() - len + 1);
      const std::string range = out.substr(at, len);
      for (size_t n = 1 + rng.Index(64); n > 0; --n) {
        if (out.size() + len > kMaxBody) break;
        out.insert(at + len, range);
      }
      break;
    }
    case kBracketRun: {
      // Short runs, and runs that fill the body to the cap.
      const size_t room = kMaxBody - std::min(kMaxBody, out.size());
      const size_t len =
          std::min(room, rng.Bernoulli(0.5) ? 1 + rng.Index(128) : room);
      const size_t at = rng.Index(out.size() + 1);
      std::string run(len, '[');
      if (rng.Bernoulli(0.5)) {
        for (char& c : run) c = rng.Bernoulli(0.5) ? '[' : '{';
      }
      out.insert(at, run);
      break;
    }
    case kNumMutations:
      break;
  }
  return out;
}

TEST(JsonParseFuzzTest, MutatedDocumentsFailCleanly) {
  std::vector<std::string> seeds = {
      R"({"user":3,"relation":"Buy","k":5})",
      R"({"user":4294967295,"relation":0,"k":10})",
      R"({ "user" : 17 , "relation" : "\u0042uy" , "k" : 1e2 })",
      R"({"user":0.7,"k":-1,"relation":null,"extra":[true,false,{}]})",
  };
  JsonWriter w;
  w.BeginObject();
  w.Field("title", std::string_view("nested \"doc\" \\ \n\t\x01 é"));
  w.Key("levels").BeginArray();
  for (int i = 0; i < 4; ++i) {
    w.BeginObject();
    w.Field("i", static_cast<uint64_t>(i));
    w.Field("x", -1.25e-3 * i);
    w.Key("ids").BeginArray().Uint(7).Uint(8).EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Field("nan", std::numeric_limits<double>::quiet_NaN());
  w.EndObject();
  seeds.push_back(w.str());
  for (const std::string& seed : seeds) {
    ASSERT_TRUE(Parses(seed)) << seed;
  }

  constexpr int kTrials = 4000;
  Rng rng(0x15a0);
  size_t parsed = 0;
  size_t rejected = 0;
  for (int t = 0; t < kTrials; ++t) {
    const size_t s = rng.Index(seeds.size());
    std::string doc = seeds[s];
    // One to three stacked mutations per trial.
    for (size_t m = 1 + rng.Index(3); m > 0; --m) {
      const std::string& other =
          seeds[(s + 1 + rng.Index(seeds.size() - 1)) % seeds.size()];
      doc = Mutate(static_cast<Mutation>(rng.Index(kNumMutations)), doc,
                   other, rng);
    }
    ASSERT_LE(doc.size(), kMaxBody);
    JsonValue result;
    std::string message;
    if (ParseJson(doc, &result, &message)) {
      ++parsed;
      continue;
    }
    ++rejected;
    const size_t at = message.rfind(" at offset ");
    ASSERT_NE(at, std::string::npos) << "trial " << t << ": " << message;
    const std::string offset = message.substr(at + 11);
    ASSERT_FALSE(offset.empty()) << "trial " << t << ": " << message;
    ASSERT_TRUE(std::all_of(offset.begin(), offset.end(),
                            [](char c) { return c >= '0' && c <= '9'; }))
        << "trial " << t << ": " << message;
    EXPECT_LE(std::stoull(offset), doc.size())
        << "trial " << t << ": " << message;
  }
  // Both outcomes occur, so the corpus exercises the accepting and the
  // rejecting paths.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, static_cast<size_t>(kTrials) / 2);
}

}  // namespace
}  // namespace supa::obs
