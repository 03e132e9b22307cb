// HTTP surface of the serving layer: POST/GET /recommend registered on
// the admin server via RegisterRecommendRoutes, exercised over real
// loopback sockets — status codes, JSON shape, relation-by-name, and the
// AddRoute plumbing (body reading, 404/405 interplay with built-ins).

#include "serve/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/model.h"
#include "data/synthetic.h"
#include "obs/admin_server.h"
#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "serve/engine.h"

namespace supa::serve {
namespace {

struct HttpResult {
  bool ok = false;
  int status = 0;
  std::string body;
};

/// One blocking loopback exchange; the server always closes.
HttpResult Exchange(uint16_t port, const std::string& request) {
  HttpResult result;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return result;
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) {
      ::close(fd);
      return result;
    }
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t split = raw.find("\r\n\r\n");
  if (split == std::string::npos || raw.rfind("HTTP/1.1 ", 0) != 0) {
    return result;
  }
  result.status = std::atoi(raw.c_str() + 9);
  result.body = raw.substr(split + 4);
  result.ok = true;
  return result;
}

HttpResult Post(uint16_t port, const std::string& path,
                const std::string& body) {
  return Exchange(
      port, "POST " + path + " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                std::to_string(body.size()) +
                "\r\nConnection: close\r\n\r\n" + body);
}

HttpResult Get(uint16_t port, const std::string& target) {
  return Exchange(port, "GET " + target +
                            " HTTP/1.1\r\nHost: t\r\nConnection: "
                            "close\r\n\r\n");
}

class ServeHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = MakePaperDataset("taobao", 0.05, 7).value();
    SupaConfig config;
    config.seed = 42;
    model_ = std::make_unique<SupaModel>(data_, config);
    for (size_t i = 0; i < data_.edges.size() / 2; ++i) {
      ASSERT_TRUE(model_->ObserveEdge(data_.edges[i]).ok());
    }
    engine_ = std::make_unique<ServeEngine>(model_.get(), &data_);
    engine_->Start();
    server_ = std::make_unique<obs::AdminServer>();
    RegisterRecommendRoutes(server_.get(), engine_.get(), &data_);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  void TearDown() override {
    server_->Stop();
    engine_->Stop();
  }

  NodeId AnyUser() const {
    for (NodeId v = 0; v < data_.num_nodes(); ++v) {
      if (data_.node_types[v] == data_.query_type) return v;
    }
    return 0;
  }

  Dataset data_;
  std::unique_ptr<SupaModel> model_;
  std::unique_ptr<ServeEngine> engine_;
  std::unique_ptr<obs::AdminServer> server_;
};

TEST_F(ServeHttpTest, PostRecommendReturnsRankedItems) {
  const auto r = Post(server_->port(), "/recommend",
                      "{\"user\":" + std::to_string(AnyUser()) +
                          ",\"relation\":0,\"k\":5}");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::ParseJson(r.body, &doc, nullptr)) << r.body;
  const obs::JsonValue* items = doc.Find("items");
  ASSERT_NE(items, nullptr);
  ASSERT_TRUE(items->is_array());
  EXPECT_LE(items->array().size(), 5u);
  EXPECT_GT(items->array().size(), 0u);
  double prev = 1e300;
  for (const obs::JsonValue& item : items->array()) {
    ASSERT_TRUE(item.Find("item") != nullptr);
    ASSERT_TRUE(item.Find("score") != nullptr);
    const double score = item.Find("score")->number_value();
    EXPECT_LE(score, prev);  // descending
    prev = score;
  }
  EXPECT_NE(doc.Find("snapshot_epoch"), nullptr);
  EXPECT_NE(doc.Find("staleness_edges"), nullptr);
  EXPECT_NE(doc.Find("latency_us"), nullptr);
}

TEST_F(ServeHttpTest, GetQueryFormMatchesPost) {
  const std::string user = std::to_string(AnyUser());
  const auto post = Post(server_->port(), "/recommend",
                         "{\"user\":" + user + ",\"relation\":0,\"k\":3}");
  const auto get =
      Get(server_->port(), "/recommend?user=" + user + "&relation=0&k=3");
  ASSERT_TRUE(post.ok);
  ASSERT_TRUE(get.ok);
  EXPECT_EQ(post.status, 200);
  EXPECT_EQ(get.status, 200);
  obs::JsonValue post_doc;
  obs::JsonValue get_doc;
  ASSERT_TRUE(obs::ParseJson(post.body, &post_doc, nullptr));
  ASSERT_TRUE(obs::ParseJson(get.body, &get_doc, nullptr));
  const auto& post_items = post_doc.Find("items")->array();
  const auto& get_items = get_doc.Find("items")->array();
  ASSERT_EQ(post_items.size(), get_items.size());
  for (size_t i = 0; i < post_items.size(); ++i) {
    EXPECT_EQ(post_items[i].Find("item")->number_value(),
              get_items[i].Find("item")->number_value());
  }
}

TEST_F(ServeHttpTest, RelationByNameResolves) {
  const std::string name = data_.schema.EdgeTypeName(0);
  const auto r = Post(server_->port(), "/recommend",
                      "{\"user\":" + std::to_string(AnyUser()) +
                          ",\"relation\":\"" + name + "\",\"k\":2}");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200) << r.body;
  const auto by_id = Post(server_->port(), "/recommend",
                          "{\"user\":" + std::to_string(AnyUser()) +
                              ",\"relation\":0,\"k\":2}");
  // Bodies differ in latency_us; the ranked items must match exactly.
  obs::JsonValue name_doc;
  obs::JsonValue id_doc;
  ASSERT_TRUE(obs::ParseJson(r.body, &name_doc, nullptr));
  ASSERT_TRUE(obs::ParseJson(by_id.body, &id_doc, nullptr));
  EXPECT_EQ(name_doc.Find("relation")->number_value(),
            id_doc.Find("relation")->number_value());
  const auto& name_items = name_doc.Find("items")->array();
  const auto& id_items = id_doc.Find("items")->array();
  ASSERT_EQ(name_items.size(), id_items.size());
  for (size_t i = 0; i < name_items.size(); ++i) {
    EXPECT_EQ(name_items[i].Find("item")->number_value(),
              id_items[i].Find("item")->number_value());
    EXPECT_EQ(name_items[i].Find("score")->number_value(),
              id_items[i].Find("score")->number_value());
  }
}

TEST_F(ServeHttpTest, BadRequestsGet400) {
  // Malformed JSON: the reader's error, with its byte offset.
  const auto malformed = Post(server_->port(), "/recommend", "{oops");
  EXPECT_EQ(malformed.status, 400);
  EXPECT_NE(malformed.body.find("at offset 1"), std::string::npos)
      << malformed.body;
  // Missing user.
  EXPECT_EQ(Post(server_->port(), "/recommend", "{\"k\":3}").status, 400);
  // Out-of-range user.
  EXPECT_EQ(Post(server_->port(), "/recommend",
                 "{\"user\":99999999,\"relation\":0}")
                .status,
            400);
  // Unknown relation name.
  EXPECT_EQ(Post(server_->port(), "/recommend",
                 "{\"user\":0,\"relation\":\"NoSuchRel\"}")
                .status,
            400);
  // GET without user.
  EXPECT_EQ(Get(server_->port(), "/recommend?k=3").status, 400);
  // Ids are never narrowed: a user past 2^32 or not a number, a fractional
  // user, a relation past 2^16 and a k no integer type holds are 400s,
  // each with a JSON error.
  const std::string user = std::to_string(AnyUser());
  for (const std::string& target :
       {std::string("/recommend?user=4294967296"),
        std::string("/recommend?user=abc"), std::string("/recommend?user=-1"),
        std::string("/recommend?user=3x"),
        "/recommend?user=" + user + "&k=abc",
        "/recommend?user=" + user + "&k=99999999999999999999999",
        "/recommend?user=" + user + "&relation=65536"}) {
    const auto r = Get(server_->port(), target);
    EXPECT_EQ(r.status, 400) << target;
    obs::JsonValue doc;
    ASSERT_TRUE(obs::ParseJson(r.body, &doc, nullptr))
        << target << ": " << r.body;
    EXPECT_NE(doc.Find("error"), nullptr) << target;
  }
  for (const std::string& body :
       {std::string("{\"user\":0.7}"), std::string("{\"user\":-1}"),
        std::string("{\"user\":4294967296}"),
        "{\"user\":" + user + ",\"relation\":65536}",
        "{\"user\":" + user + ",\"relation\":0.5}",
        "{\"user\":" + user + ",\"k\":1e300}",
        "{\"user\":" + user + ",\"k\":2.5}"}) {
    const auto r = Post(server_->port(), "/recommend", body);
    EXPECT_EQ(r.status, 400) << body;
    obs::JsonValue doc;
    ASSERT_TRUE(obs::ParseJson(r.body, &doc, nullptr))
        << body << ": " << r.body;
    EXPECT_NE(doc.Find("error"), nullptr) << body;
  }
}

TEST_F(ServeHttpTest, HugeKIsClippedToTheCandidates) {
  const auto r = Get(server_->port(), "/recommend?user=" +
                                          std::to_string(AnyUser()) +
                                          "&k=1099511627776");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200) << r.body;
  obs::JsonValue doc;
  ASSERT_TRUE(obs::ParseJson(r.body, &doc, nullptr)) << r.body;
  const obs::JsonValue* items = doc.Find("items");
  ASSERT_NE(items, nullptr);
  EXPECT_GT(items->array().size(), 0u);
  EXPECT_LE(items->array().size(), engine_->candidates().size());
}

// Each worker caches, per candidate, a float row, its norm bound and the
// three row pointers it was built from, plus one float user row; the
// gauge and /statusz must report exactly that, so a cache that grows back
// to double rows fails here.
TEST_F(ServeHttpTest, ItemCacheIsOnMetricsAndStatusz) {
  ASSERT_EQ(Get(server_->port(),
                "/recommend?user=" + std::to_string(AnyUser()))
                .status,
            200);
  const auto metrics = Get(server_->port(), "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_NE(metrics.body.find("serve_item_refreshes_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("serve_item_cache_bytes"), std::string::npos);
  EXPECT_NE(metrics.body.find("serve_exact_scores_total"), std::string::npos);

  const size_t dim = static_cast<size_t>(model_->config().dim);
  const size_t per_candidate =
      dim * sizeof(float) + sizeof(float) + 3 * sizeof(const float*);
  const size_t expected =
      engine_->options().workers *
      (engine_->candidates().size() * per_candidate + dim * sizeof(float));
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  const auto* gauge = snapshot.Find("serve.item_cache_bytes");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->gauge, static_cast<double>(expected));

  const auto statusz = Get(server_->port(), "/statusz?format=json");
  ASSERT_TRUE(statusz.ok);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::ParseJson(statusz.body, &doc, nullptr)) << statusz.body;
  const obs::JsonValue* sections = doc.Find("sections");
  ASSERT_NE(sections, nullptr);
  const obs::JsonValue* cache_bytes = nullptr;
  for (const obs::JsonValue& section : sections->array()) {
    const obs::JsonValue* name = section.Find("name");
    if (name != nullptr && name->string_value() == "serve") {
      const obs::JsonValue* items = section.Find("items");
      ASSERT_NE(items, nullptr);
      cache_bytes = items->Find("item_cache_bytes");
    }
  }
  ASSERT_NE(cache_bytes, nullptr);
  EXPECT_EQ(cache_bytes->string_value(), std::to_string(expected));
}

TEST_F(ServeHttpTest, ErrorBodyIsJsonWithErrorField) {
  const auto r = Post(server_->port(), "/recommend", "{\"k\":3}");
  ASSERT_TRUE(r.ok);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::ParseJson(r.body, &doc, nullptr)) << r.body;
  EXPECT_NE(doc.Find("error"), nullptr);
}

TEST_F(ServeHttpTest, UnknownPathStill404AndBuiltinsStillServed) {
  EXPECT_EQ(Get(server_->port(), "/nosuch").status, 404);
  // Built-ins are GET/HEAD only, so the method gate (405) fires before the
  // path lookup for POSTs that match no registered route.
  EXPECT_EQ(Post(server_->port(), "/nosuch", "{}").status, 405);
  const auto metrics = Get(server_->port(), "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.status, 200);
  // POST to a built-in (no registered POST route) is still method-gated.
  EXPECT_EQ(Post(server_->port(), "/metrics", "{}").status, 405);
}

TEST_F(ServeHttpTest, StoppedEngineGets503) {
  engine_->Stop();
  const auto r = Post(server_->port(), "/recommend",
                      "{\"user\":" + std::to_string(AnyUser()) + "}");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 503);
  engine_->Start();  // TearDown stops it again
}

TEST_F(ServeHttpTest, OversizedBodyGets413) {
  const std::string big(100000, 'x');
  const auto r = Post(server_->port(), "/recommend", big);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 413);
}

}  // namespace
}  // namespace supa::serve
