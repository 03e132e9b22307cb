// HTTP bridge from the admin server to the serving engine.
//
// RegisterRecommendRoutes wires a ServeEngine into an obs::AdminServer via
// AddRoute, exposing:
//
//   POST /recommend   body {"user": 3, "relation": 0, "k": 10}
//                     ("relation" may also be the schema edge-type name,
//                      e.g. "clicks"; "relation" and "k" are optional)
//   GET  /recommend?user=3&relation=0&k=10
//                     same parameters as a query string (curl-friendly)
//
// Both forms answer with one JSON object:
//
//   {"user": 3, "relation": 0, "k": 10,
//    "items": [{"item": 17, "score": 0.42}, ...],
//    "snapshot_epoch": 12, "staleness_edges": 3, "latency_us": 81.0}
//
// "user", "relation" and "k" must be whole, non-negative numbers that fit
// their types (a query-string value all digits, without overflow); any
// other value answers 400, never a narrowed id. A k above the candidate
// count is clipped to it.
//
// Engine statuses map onto HTTP codes: OutOfRange / InvalidArgument (bad
// ids, malformed body) -> 400; ResourceExhausted (admission queue full)
// and FailedPrecondition (engine not running) -> 503 so load generators
// can distinguish overload from client error; anything else -> 500.
// Errors answer {"error": "..."} with the engine's message.
//
// The handlers run on the admin thread and only call
// ServeEngine::Recommend (thread-safe, snapshot reads only), preserving
// the admin server's non-perturbation contract.

#ifndef SUPA_SERVE_HTTP_H_
#define SUPA_SERVE_HTTP_H_

#include "data/dataset.h"
#include "obs/admin_server.h"
#include "serve/engine.h"

namespace supa::serve {

/// Registers POST and GET /recommend on `server`, forwarding to `engine`.
/// `engine` and `data` must stay valid until the server stops; `data` is
/// only used to resolve relation names to EdgeTypeIds.
void RegisterRecommendRoutes(obs::AdminServer* server, ServeEngine* engine,
                             const Dataset* data);

}  // namespace supa::serve

#endif  // SUPA_SERVE_HTTP_H_
