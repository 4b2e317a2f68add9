// Minimal streaming JSON writer for bench/trace artifacts.
//
// Just enough for the machine-readable outputs this repo emits
// (BENCH_*.json summaries, trace exports): objects, arrays, strings,
// integers, doubles, booleans, with automatic comma placement. Doubles are
// rendered with "%.6g" via snprintf so output is locale-independent and
// stable across runs — the CI bench-smoke job diffs these files.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ritas {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits `"name":` — must be followed by a value or begin_*.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(bool v);

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& field(std::string_view name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void comma();
  void escaped(std::string_view s);

  std::string out_;
  bool need_comma_ = false;
};

/// Parsed JSON value (the reader counterpart of JsonWriter).
///
/// Covers exactly the subset the stack's own artifacts use — null, bool,
/// number, string, array, object — which is all `json_parse` accepts.
/// Accessors never throw: lookups on the wrong kind or a missing key
/// return nullptr / nullopt, so callers validating a foreign artifact
/// (e.g. a schedule_<seed>.json handed to `ritas_explore --replay`) can
/// treat every failure as "malformed input, reject".
struct JsonValue {
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  std::uint64_t unsigned_num = 0;  // exact value when the token was a u64
  bool is_unsigned = false;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  /// Object member lookup; nullptr when not an object or key absent.
  const JsonValue* get(std::string_view key) const;

  std::optional<bool> as_bool() const;
  std::optional<std::uint64_t> as_u64() const;
  std::optional<std::string_view> as_string() const;

  /// get(key) + typed accessor in one step.
  std::optional<bool> bool_at(std::string_view key) const;
  std::optional<std::uint64_t> u64_at(std::string_view key) const;
  std::optional<std::string_view> string_at(std::string_view key) const;
};

/// Recursive-descent parse of a complete JSON document. Returns nullopt on
/// any syntax error or trailing garbage. Depth-limited so hostile input
/// cannot blow the stack.
std::optional<JsonValue> json_parse(std::string_view text);

}  // namespace ritas
