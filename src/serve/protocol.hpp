// Wire protocol for `graffix serve`: line-delimited JSON frames.
//
// One request per line, one response line per request, over stdin/stdout
// or a local TCP socket. The grammar is deliberately small (DESIGN.md
// §10): a flat object with an `op` discriminator; responses are
// `{"id":N,"ok":true,...}` or `{"id":N,"ok":false,"error":{...}}`.
//
// Determinism contract: a rendered query response is a pure function of
// (request, graph snapshot). Nothing timing- or scheduling-dependent —
// wall-clock latency, batch occupancy, global round counters shared with
// unrelated lanes — may appear in a query payload; such telemetry is
// only reachable through the `stats` op. This is what makes the
// batched-vs-serial and interleaving differential tests byte-exact.
//
// The JSON parser is hand-rolled (the repo takes no third-party deps):
// recursive descent with a hard nesting cap, returning a typed error for
// every malformed frame instead of asserting — a resident daemon parses
// hostile bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace graffix::serve {

/// Hard cap on one request frame (bytes, newline included) unless the
/// server overrides it. Oversized frames are consumed and answered with
/// `frame_too_large`, never buffered in full.
inline constexpr std::size_t kDefaultMaxFrameBytes = std::size_t{1} << 20;

/// Maximum nodes a query may ask to echo values for.
inline constexpr std::size_t kMaxEchoNodes = 64;

/// Typed error vocabulary. Every fault path in the daemon maps to exactly
/// one of these; `error_code_name` is the wire spelling.
enum class ErrorCode {
  ParseError,       // frame is not valid JSON / not an object
  BadRequest,       // JSON fine, fields missing or mistyped
  UnknownOp,        // unrecognized "op"
  UnknownAlgorithm, // unrecognized "alg"
  UnknownVariant,   // "variant" names no published snapshot
  BadSource,        // source/nodes out of range or a hole slot
  DeadlineExpired,  // request outlived its deadline_ms in queue or flight
  Overloaded,       // bounded queue full — shed-load response
  FrameTooLarge,    // line exceeded the frame cap
  ShuttingDown,     // daemon is draining; no new work accepted
  Internal,         // validated request still failed (bug guard)
};

[[nodiscard]] const char* error_code_name(ErrorCode code);

enum class Op { Query, Stats, Transform, Ping, Shutdown };

enum class QueryAlg { Sssp, Bfs, Pagerank, Bc };

[[nodiscard]] const char* query_alg_name(QueryAlg alg);

/// A parsed request frame. String fields carry defaults so handlers never
/// branch on presence except where semantics require it.
struct Request {
  std::uint64_t id = 0;
  Op op = Op::Ping;

  // op == Query
  QueryAlg alg = QueryAlg::Sssp;
  bool has_source = false;
  NodeId source = 0;
  std::vector<NodeId> sources;   // BC multi-source override
  std::vector<NodeId> nodes;     // echo attribute values at these slots
  std::string variant = "base";  // snapshot to query
  double deadline_ms = 0.0;      // 0 = no deadline
  std::uint64_t seed = 42;       // BC sampling seed

  // op == Transform
  std::string name;              // target variant (default: overwrite source)
  std::string kind;              // "none" | "sparsify" | "divergence"
  double drop_fraction = 0.1;    // sparsify knob
  double threshold = 0.3;        // divergence degree-sim threshold
};

struct ParseResult {
  bool ok = false;
  Request request;
  ErrorCode code = ErrorCode::ParseError;
  std::string message;
};

/// Parses one frame (without trailing newline). On failure, `request.id`
/// still carries the frame's id when the parser could recover one, so
/// the error response can be correlated by the client.
[[nodiscard]] ParseResult parse_request(std::string_view line);

// ---- Response rendering -------------------------------------------------

/// Append-only JSON object writer. Keys are emitted in call order, so a
/// response's byte layout is fixed by its render function — the property
/// the differential tests compare on.
class JsonWriter {
 public:
  JsonWriter() : out_("{") {}
  void field_u64(std::string_view key, std::uint64_t v);
  void field_double(std::string_view key, double v);
  void field_bool(std::string_view key, bool v);
  void field_string(std::string_view key, std::string_view v);
  /// Opens `"key":[` — follow with raw_item calls, then close_array().
  void open_array(std::string_view key);
  void raw_item(std::string_view item);
  void close_array();
  /// Opens `"key":{` — nested fields follow, then close_object().
  void open_object(std::string_view key);
  void close_object();
  [[nodiscard]] std::string finish();

 private:
  void comma();
  void key(std::string_view k);
  std::string out_;
  bool first_ = true;
  std::vector<bool> first_stack_;
};

/// Shortest round-trippable decimal for v (printf %.17g); "inf" for
/// unreachable distances.
[[nodiscard]] std::string format_double(double v);

/// Escapes a string for embedding in a JSON literal (quotes not added).
[[nodiscard]] std::string json_escape(std::string_view s);

[[nodiscard]] std::string render_error(std::uint64_t id, ErrorCode code,
                                       std::string_view message);

// ---- Digests ------------------------------------------------------------

/// FNV-1a 64 over raw bytes; query responses carry a digest of the full
/// per-lane attribute vector so tests compare whole answers without
/// shipping |V| values per frame.
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t len);
[[nodiscard]] std::uint64_t fnv1a64_append(std::uint64_t h, const void* data,
                                           std::size_t len);
[[nodiscard]] std::string hex64(std::uint64_t v);

// ---- Minimal JSON value model (requests only) ---------------------------

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  /// First value for `key`, or nullptr. Linear scan — request objects
  /// have a handful of keys.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Parses `text` into `out`. Returns false with a message on any
/// malformation (trailing garbage included). Nesting capped at depth 16.
[[nodiscard]] bool parse_json(std::string_view text, JsonValue& out,
                              std::string& error);

}  // namespace graffix::serve
