#include "serve/protocol.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace graffix::serve {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::ParseError: return "parse_error";
    case ErrorCode::BadRequest: return "bad_request";
    case ErrorCode::UnknownOp: return "unknown_op";
    case ErrorCode::UnknownAlgorithm: return "unknown_algorithm";
    case ErrorCode::UnknownVariant: return "unknown_variant";
    case ErrorCode::BadSource: return "bad_source";
    case ErrorCode::DeadlineExpired: return "deadline_expired";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::FrameTooLarge: return "frame_too_large";
    case ErrorCode::ShuttingDown: return "shutting_down";
    case ErrorCode::Internal: return "internal";
  }
  return "internal";
}

const char* query_alg_name(QueryAlg alg) {
  switch (alg) {
    case QueryAlg::Sssp: return "sssp";
    case QueryAlg::Bfs: return "bfs";
    case QueryAlg::Pagerank: return "pagerank";
    case QueryAlg::Bc: return "bc";
  }
  return "sssp";
}

// ---- JSON parser --------------------------------------------------------

namespace {

constexpr int kMaxDepth = 16;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  [[nodiscard]] bool eof() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }

  void skip_ws() {
    while (!eof()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\r' && c != '\n') break;
      ++pos;
    }
  }

  bool fail(const char* msg) {
    if (error.empty()) {
      error = msg;
      error += " at byte ";
      char buf[24];
      std::snprintf(buf, sizeof buf, "%zu", pos);
      error += buf;
    }
    return false;
  }

  bool consume(char want, const char* what) {
    skip_ws();
    if (eof() || text[pos] != want) return fail(what);
    ++pos;
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (eof()) return fail("unexpected end of input");
    const char c = text[pos];
    switch (c) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out.type = JsonValue::Type::String;
        return parse_string(out.string);
      case 't':
      case 'f': return parse_bool(out);
      case 'n': return parse_null(out);
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    out.type = JsonValue::Type::Object;
    ++pos;  // '{'
    skip_ws();
    if (!eof() && text[pos] == '}') { ++pos; return true; }
    while (true) {
      skip_ws();
      if (eof() || text[pos] != '"') return fail("expected object key");
      std::string key;
      if (!parse_string(key)) return false;
      if (!consume(':', "expected ':'")) return false;
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (eof()) return fail("unterminated object");
      if (text[pos] == ',') { ++pos; continue; }
      if (text[pos] == '}') { ++pos; return true; }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    out.type = JsonValue::Type::Array;
    ++pos;  // '['
    skip_ws();
    if (!eof() && text[pos] == ']') { ++pos; return true; }
    while (true) {
      JsonValue item;
      if (!parse_value(item, depth + 1)) return false;
      out.array.push_back(std::move(item));
      skip_ws();
      if (eof()) return fail("unterminated array");
      if (text[pos] == ',') { ++pos; continue; }
      if (text[pos] == ']') { ++pos; return true; }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    ++pos;  // opening quote
    out.clear();
    while (true) {
      if (eof()) return fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (eof()) return fail("unterminated escape");
        const char e = text[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            // Requests are ASCII in practice; encode BMP code points as
            // UTF-8, reject surrogates (no pair handling).
            if (code >= 0xD800 && code <= 0xDFFF) return fail("surrogate escape");
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return fail("bad escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) return fail("control byte in string");
      out += c;
    }
  }

  bool parse_bool(JsonValue& out) {
    if (text.substr(pos, 4) == "true") {
      out.type = JsonValue::Type::Bool;
      out.boolean = true;
      pos += 4;
      return true;
    }
    if (text.substr(pos, 5) == "false") {
      out.type = JsonValue::Type::Bool;
      out.boolean = false;
      pos += 5;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_null(JsonValue& out) {
    if (text.substr(pos, 4) == "null") {
      out.type = JsonValue::Type::Null;
      pos += 4;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos;
    if (!eof() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    bool digits = false;
    while (!eof()) {
      const char c = text[pos];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        digits = digits || (c >= '0' && c <= '9');
        ++pos;
        continue;
      }
      break;
    }
    if (!digits) return fail("expected value");
    // strtod needs a terminated buffer; numbers are short.
    char buf[64];
    const std::size_t len = pos - start;
    if (len >= sizeof buf) return fail("number too long");
    std::memcpy(buf, text.data() + start, len);
    buf[len] = '\0';
    char* end = nullptr;
    out.number = std::strtod(buf, &end);
    if (end != buf + len) return fail("malformed number");
    if (!std::isfinite(out.number)) return fail("non-finite number");
    out.type = JsonValue::Type::Number;
    return true;
  }
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view k) const {
  for (const auto& [key, value] : object) {
    if (key == k) return &value;
  }
  return nullptr;
}

bool parse_json(std::string_view text, JsonValue& out, std::string& error) {
  Parser p{text, 0, {}};
  if (!p.parse_value(out, 0)) {
    error = p.error;
    return false;
  }
  p.skip_ws();
  if (!p.eof()) {
    p.fail("trailing bytes after value");
    error = p.error;
    return false;
  }
  return true;
}

// ---- Request decoding ---------------------------------------------------

namespace {

/// Reads a nonnegative integer field that must fit `max`. Returns false
/// (with a message) on type or range violations.
bool read_uint(const JsonValue& v, std::uint64_t max, std::uint64_t& out,
               const char* what, std::string& message) {
  if (v.type != JsonValue::Type::Number || v.number < 0.0 ||
      v.number != std::floor(v.number) ||
      v.number > static_cast<double>(max)) {
    message = std::string(what) + " must be an integer in [0, max]";
    return false;
  }
  out = static_cast<std::uint64_t>(v.number);
  return true;
}

ParseResult error_result(std::uint64_t id, ErrorCode code, std::string message) {
  ParseResult r;
  r.ok = false;
  r.request.id = id;
  r.code = code;
  r.message = std::move(message);
  return r;
}

}  // namespace

ParseResult parse_request(std::string_view line) {
  JsonValue root;
  std::string error;
  if (!parse_json(line, root, error)) {
    return error_result(0, ErrorCode::ParseError, error);
  }
  if (root.type != JsonValue::Type::Object) {
    return error_result(0, ErrorCode::ParseError, "frame must be a JSON object");
  }

  std::uint64_t id = 0;
  if (const JsonValue* v = root.find("id")) {
    std::string msg;
    if (!read_uint(*v, std::uint64_t{1} << 53, id, "id", msg)) {
      return error_result(0, ErrorCode::BadRequest, msg);
    }
  }

  const JsonValue* opv = root.find("op");
  if (opv == nullptr || opv->type != JsonValue::Type::String) {
    return error_result(id, ErrorCode::BadRequest, "missing string field 'op'");
  }

  ParseResult r;
  r.ok = true;
  r.request.id = id;
  Request& req = r.request;

  const std::string& op = opv->string;
  if (op == "ping") { req.op = Op::Ping; return r; }
  if (op == "stats") { req.op = Op::Stats; return r; }
  if (op == "shutdown") { req.op = Op::Shutdown; return r; }

  if (op == "query") {
    req.op = Op::Query;
    const JsonValue* algv = root.find("alg");
    if (algv == nullptr || algv->type != JsonValue::Type::String) {
      return error_result(id, ErrorCode::BadRequest, "query needs string 'alg'");
    }
    if (algv->string == "sssp") req.alg = QueryAlg::Sssp;
    else if (algv->string == "bfs") req.alg = QueryAlg::Bfs;
    else if (algv->string == "pagerank" || algv->string == "pr") req.alg = QueryAlg::Pagerank;
    else if (algv->string == "bc") req.alg = QueryAlg::Bc;
    else return error_result(id, ErrorCode::UnknownAlgorithm,
                             "unknown algorithm '" + algv->string + "'");

    std::string msg;
    if (const JsonValue* v = root.find("source")) {
      std::uint64_t s = 0;
      if (!read_uint(*v, kInvalidNode - 1, s, "source", msg)) {
        return error_result(id, ErrorCode::BadSource, msg);
      }
      req.source = static_cast<NodeId>(s);
      req.has_source = true;
    }
    if (const JsonValue* v = root.find("sources")) {
      if (v->type != JsonValue::Type::Array || v->array.size() > 256) {
        return error_result(id, ErrorCode::BadRequest,
                            "'sources' must be an array of at most 256 ids");
      }
      for (const JsonValue& item : v->array) {
        std::uint64_t s = 0;
        if (!read_uint(item, kInvalidNode - 1, s, "sources[]", msg)) {
          return error_result(id, ErrorCode::BadSource, msg);
        }
        req.sources.push_back(static_cast<NodeId>(s));
      }
    }
    if (const JsonValue* v = root.find("nodes")) {
      if (v->type != JsonValue::Type::Array || v->array.size() > kMaxEchoNodes) {
        return error_result(id, ErrorCode::BadRequest,
                            "'nodes' must be an array of at most 64 ids");
      }
      for (const JsonValue& item : v->array) {
        std::uint64_t s = 0;
        if (!read_uint(item, kInvalidNode - 1, s, "nodes[]", msg)) {
          return error_result(id, ErrorCode::BadSource, msg);
        }
        req.nodes.push_back(static_cast<NodeId>(s));
      }
    }
    if (const JsonValue* v = root.find("variant")) {
      if (v->type != JsonValue::Type::String || v->string.empty()) {
        return error_result(id, ErrorCode::BadRequest, "'variant' must be a string");
      }
      req.variant = v->string;
    }
    if (const JsonValue* v = root.find("deadline_ms")) {
      if (v->type != JsonValue::Type::Number || v->number < 0.0) {
        return error_result(id, ErrorCode::BadRequest,
                            "'deadline_ms' must be a nonnegative number");
      }
      req.deadline_ms = v->number;
    }
    if (const JsonValue* v = root.find("seed")) {
      std::uint64_t s = 0;
      if (!read_uint(*v, std::uint64_t{1} << 53, s, "seed", msg)) {
        return error_result(id, ErrorCode::BadRequest, msg);
      }
      req.seed = s;
    }
    const bool needs_source =
        req.alg == QueryAlg::Sssp || req.alg == QueryAlg::Bfs;
    if (needs_source && !req.has_source) {
      return error_result(id, ErrorCode::BadRequest,
                          "sssp/bfs queries need a 'source'");
    }
    return r;
  }

  if (op == "transform") {
    req.op = Op::Transform;
    const JsonValue* kindv = root.find("kind");
    if (kindv == nullptr || kindv->type != JsonValue::Type::String) {
      return error_result(id, ErrorCode::BadRequest, "transform needs string 'kind'");
    }
    req.kind = kindv->string;
    if (req.kind != "none" && req.kind != "sparsify" && req.kind != "divergence") {
      // Renumbering transforms (coalescing, latency clustering) change
      // slot ids, so answers on the new snapshot would not be
      // addressable by client-held ids — rejected by policy.
      return error_result(id, ErrorCode::BadRequest,
                          "transform kind must be none|sparsify|divergence "
                          "(renumbering kinds are not servable)");
    }
    if (const JsonValue* v = root.find("variant")) {
      if (v->type != JsonValue::Type::String || v->string.empty()) {
        return error_result(id, ErrorCode::BadRequest, "'variant' must be a string");
      }
      req.variant = v->string;
    }
    if (const JsonValue* v = root.find("name")) {
      if (v->type != JsonValue::Type::String || v->string.empty()) {
        return error_result(id, ErrorCode::BadRequest, "'name' must be a string");
      }
      req.name = v->string;
    }
    if (req.name.empty()) req.name = req.variant;
    std::string msg;
    if (const JsonValue* v = root.find("seed")) {
      std::uint64_t s = 0;
      if (!read_uint(*v, std::uint64_t{1} << 53, s, "seed", msg)) {
        return error_result(id, ErrorCode::BadRequest, msg);
      }
      req.seed = s;
    }
    if (const JsonValue* v = root.find("drop_fraction")) {
      if (v->type != JsonValue::Type::Number || v->number < 0.0 || v->number >= 1.0) {
        return error_result(id, ErrorCode::BadRequest,
                            "'drop_fraction' must lie in [0, 1)");
      }
      req.drop_fraction = v->number;
    }
    if (const JsonValue* v = root.find("threshold")) {
      if (v->type != JsonValue::Type::Number || v->number <= 0.0 || v->number > 1.0) {
        return error_result(id, ErrorCode::BadRequest,
                            "'threshold' must lie in (0, 1]");
      }
      req.threshold = v->number;
    }
    return r;
  }

  return error_result(id, ErrorCode::UnknownOp, "unknown op '" + op + "'");
}

// ---- Rendering ----------------------------------------------------------

void JsonWriter::comma() {
  if (first_) first_ = false;
  else out_ += ',';
}

void JsonWriter::key(std::string_view k) {
  comma();
  out_ += '"';
  out_ += k;
  out_ += "\":";
}

void JsonWriter::field_u64(std::string_view k, std::uint64_t v) {
  key(k);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out_ += buf;
}

void JsonWriter::field_double(std::string_view k, double v) {
  key(k);
  out_ += format_double(v);
}

void JsonWriter::field_bool(std::string_view k, bool v) {
  key(k);
  out_ += v ? "true" : "false";
}

void JsonWriter::field_string(std::string_view k, std::string_view v) {
  key(k);
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
}

void JsonWriter::open_array(std::string_view k) {
  key(k);
  out_ += '[';
  first_stack_.push_back(first_);
  first_ = true;
}

void JsonWriter::raw_item(std::string_view item) {
  comma();
  out_ += item;
}

void JsonWriter::close_array() {
  out_ += ']';
  first_ = false;
  first_stack_.pop_back();
}

void JsonWriter::open_object(std::string_view k) {
  key(k);
  out_ += '{';
  first_stack_.push_back(first_);
  first_ = true;
}

void JsonWriter::close_object() {
  out_ += '}';
  first_ = false;
  first_stack_.pop_back();
}

std::string JsonWriter::finish() {
  out_ += '}';
  return std::move(out_);
}

std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "\"inf\"" : "\"-inf\"";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string render_error(std::uint64_t id, ErrorCode code,
                         std::string_view message) {
  JsonWriter w;
  w.field_u64("id", id);
  w.field_bool("ok", false);
  w.open_object("error");
  w.field_string("code", error_code_name(code));
  w.field_string("message", message);
  w.close_object();
  return w.finish();
}

std::uint64_t fnv1a64(const void* data, std::size_t len) {
  return fnv1a64_append(0xcbf29ce484222325ULL, data, len);
}

std::uint64_t fnv1a64_append(std::uint64_t h, const void* data,
                             std::size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace graffix::serve
