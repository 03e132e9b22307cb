#include "serve/http.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

#include "obs/json_parse.h"
#include "obs/json_writer.h"

namespace supa::serve {
namespace {

/// A query-string value as an integer in [0, max]: decimal digits only,
/// no sign, and no overflow.
bool ParseWhole(std::string_view text, uint64_t max, uint64_t* out) {
  uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v > max) return false;
  *out = v;
  return true;
}

/// A JSON number as an integer in [0, max]: finite, whole and in range,
/// so the cast to the id type never narrows or overflows.
bool WholeNumber(const obs::JsonValue& value, uint64_t max, uint64_t* out) {
  if (!value.is_number()) return false;
  const double x = value.number_value();
  // 2^64 is exact in double, and every whole double below it fits.
  if (!(x >= 0.0 && x < 18446744073709551616.0) || x != std::floor(x)) {
    return false;
  }
  const uint64_t v = static_cast<uint64_t>(x);
  if (v > max) return false;
  *out = v;
  return true;
}

constexpr uint64_t kMaxUser = std::numeric_limits<NodeId>::max();
constexpr uint64_t kMaxK = std::numeric_limits<size_t>::max();

/// Resolves a relation given either a numeric id or a schema edge-type
/// name. Returns false (with *error set) when the value resolves to
/// nothing.
bool ResolveRelation(const Dataset& data, const std::string& text,
                     EdgeTypeId* out, std::string* error) {
  if (!text.empty() &&
      text.find_first_not_of("0123456789") == std::string::npos) {
    uint64_t id = 0;
    if (!ParseWhole(text, data.schema.num_edge_types() - 1, &id)) {
      *error = "relation id out of range: " + text;
      return false;
    }
    *out = static_cast<EdgeTypeId>(id);
    return true;
  }
  for (EdgeTypeId r = 0; r < data.schema.num_edge_types(); ++r) {
    if (data.schema.EdgeTypeName(r) == text) {
      *out = r;
      return true;
    }
  }
  *error = "unknown relation: " + text;
  return false;
}

/// %XX-decodes one query-string value (plus stays literal; /recommend
/// parameters are numeric ids and schema names, which never contain '+').
std::string UrlDecode(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '%' && i + 2 < in.size()) {
      const char hex[3] = {in[i + 1], in[i + 2], '\0'};
      char* end = nullptr;
      const long v = std::strtol(hex, &end, 16);
      if (end == hex + 2) {
        out.push_back(static_cast<char>(v));
        i += 2;
        continue;
      }
    }
    out.push_back(in[i]);
  }
  return out;
}

/// Pulls `key` out of an application/x-www-form-urlencoded query string.
bool QueryParam(std::string_view query, std::string_view key,
                std::string* out) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view pair = query.substr(pos, amp - pos);
    const size_t eq = pair.find('=');
    const std::string_view name =
        eq == std::string_view::npos ? pair : pair.substr(0, eq);
    if (name == key) {
      *out = UrlDecode(eq == std::string_view::npos ? std::string_view{}
                                                    : pair.substr(eq + 1));
      return true;
    }
    pos = amp + 1;
  }
  return false;
}

obs::HttpResponse JsonError(int status, const std::string& message) {
  obs::JsonWriter json;
  json.BeginObject().Key("error").String(message).EndObject();
  obs::HttpResponse resp;
  resp.status = status;
  resp.content_type = "application/json";
  resp.body = json.str();
  return resp;
}

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOutOfRange:
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kResourceExhausted:
    case StatusCode::kFailedPrecondition:
      return 503;
    default:
      return 500;
  }
}

/// Runs one parsed request through the engine and renders the response.
obs::HttpResponse Serve(ServeEngine* engine, const RecommendRequest& req) {
  RecommendResponse result;
  const Status status = engine->Recommend(req, &result);
  if (!status.ok()) {
    return JsonError(HttpStatusFor(status), status.message());
  }
  obs::JsonWriter json;
  json.BeginObject()
      .Key("user")
      .Uint(req.user)
      .Key("relation")
      .Uint(req.relation)
      .Key("k")
      .Uint(result.items.size())
      .Key("items")
      .BeginArray();
  for (const ScoredItem& item : result.items) {
    json.BeginObject()
        .Key("item")
        .Uint(item.item)
        .Key("score")
        .Double(item.score)
        .EndObject();
  }
  json.EndArray()
      .Key("snapshot_epoch")
      .Uint(result.snapshot_epoch)
      .Key("staleness_edges")
      .Uint(result.staleness_edges)
      .Key("latency_us")
      .Double(result.latency_us)
      .EndObject();
  obs::HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = json.str();
  return resp;
}

obs::HttpResponse HandlePost(ServeEngine* engine, const Dataset* data,
                             const obs::HttpRequest& http) {
  obs::JsonValue doc;
  std::string parse_error;
  if (!obs::ParseJson(http.body, &doc, &parse_error)) {
    const Status status =
        Status::InvalidArgument("bad request body: " + parse_error);
    return JsonError(HttpStatusFor(status), status.message());
  }
  if (!doc.is_object()) {
    return JsonError(400, "request body must be a JSON object");
  }
  const obs::JsonValue* user = doc.Find("user");
  if (user == nullptr || !user->is_number()) {
    return JsonError(400, "missing numeric field: user");
  }
  RecommendRequest req;
  uint64_t id = 0;
  if (!WholeNumber(*user, kMaxUser, &id)) {
    return JsonError(400, "user must be a whole number in range");
  }
  req.user = static_cast<NodeId>(id);
  if (const obs::JsonValue* relation = doc.Find("relation")) {
    if (relation->is_number()) {
      if (!WholeNumber(*relation, data->schema.num_edge_types() - 1, &id)) {
        return JsonError(400, "relation id out of range");
      }
      req.relation = static_cast<EdgeTypeId>(id);
    } else if (relation->is_string()) {
      std::string error;
      if (!ResolveRelation(*data, relation->string_value(), &req.relation,
                           &error)) {
        return JsonError(400, error);
      }
    } else {
      return JsonError(400, "relation must be a number or a name");
    }
  }
  if (const obs::JsonValue* k = doc.Find("k")) {
    if (!WholeNumber(*k, kMaxK, &id)) {
      return JsonError(400, "k must be a non-negative whole number");
    }
    req.k = static_cast<size_t>(id);
  }
  return Serve(engine, req);
}

obs::HttpResponse HandleGet(ServeEngine* engine, const Dataset* data,
                            const obs::HttpRequest& http) {
  std::string value;
  if (!QueryParam(http.query, "user", &value) || value.empty()) {
    return JsonError(400, "missing query parameter: user");
  }
  RecommendRequest req;
  uint64_t id = 0;
  if (!ParseWhole(value, kMaxUser, &id)) {
    return JsonError(400, "user must be a whole number in range: " + value);
  }
  req.user = static_cast<NodeId>(id);
  if (QueryParam(http.query, "relation", &value)) {
    std::string error;
    if (!ResolveRelation(*data, value, &req.relation, &error)) {
      return JsonError(400, error);
    }
  }
  if (QueryParam(http.query, "k", &value)) {
    if (!ParseWhole(value, kMaxK, &id)) {
      return JsonError(400, "k must be a non-negative whole number: " + value);
    }
    req.k = static_cast<size_t>(id);
  }
  return Serve(engine, req);
}

}  // namespace

void RegisterRecommendRoutes(obs::AdminServer* server, ServeEngine* engine,
                             const Dataset* data) {
  server->AddRoute("POST", "/recommend",
                   [engine, data](const obs::HttpRequest& http) {
                     return HandlePost(engine, data, http);
                   });
  server->AddRoute("GET", "/recommend",
                   [engine, data](const obs::HttpRequest& http) {
                     return HandleGet(engine, data, http);
                   });
}

}  // namespace supa::serve
