// Minimal JSON DOM parser — just enough for the repo's own dump formats
// (--json / --metrics / --snapshots / Chrome traces), with no third-party
// dependency. Used by tools/seer_inspect and by tests that validate the
// dumps structurally instead of by substring.
//
// Scope: full JSON value grammar (null, bool, number, string, array,
// object) with the usual escapes; numbers are held as double (every counter
// we emit fits 2^53 losslessly); object member order is preserved.
// Out of scope: serialization (util/json_writer.hpp), streaming, and
// >64-deep nesting (parse error, not UB).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace seer::util::json {

class Value {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  // Insertion-ordered; duplicate keys keep the first occurrence on lookup.
  std::vector<std::pair<std::string, Value>> object;

  [[nodiscard]] bool is_null() const noexcept { return type == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return type == Type::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return type == Type::kString; }
  [[nodiscard]] bool is_array() const noexcept { return type == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return type == Type::kObject; }

  [[nodiscard]] std::uint64_t as_u64() const noexcept {
    if (number < 0.0) return 0;
    // 2^64 and above would overflow the cast (UB); saturate instead.
    if (number >= 18446744073709551616.0) return ~std::uint64_t{0};
    return static_cast<std::uint64_t>(number);
  }

  // Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  // Chained convenience: obj.u64("commits", fallback) etc.
  [[nodiscard]] std::uint64_t u64(std::string_view key,
                                  std::uint64_t fallback = 0) const noexcept {
    const Value* v = find(key);
    return v != nullptr && v->is_number() ? v->as_u64() : fallback;
  }
  [[nodiscard]] double num(std::string_view key, double fallback = 0.0) const noexcept {
    const Value* v = find(key);
    return v != nullptr && v->is_number() ? v->number : fallback;
  }
  [[nodiscard]] std::string_view str(std::string_view key,
                                     std::string_view fallback = "") const noexcept {
    const Value* v = find(key);
    return v != nullptr && v->is_string() ? std::string_view(v->string) : fallback;
  }
};

// Parses one JSON document (trailing garbage is an error). On failure
// returns nullopt and, when `error` is non-null, fills it with a message
// that includes the byte offset.
[[nodiscard]] std::optional<Value> parse(std::string_view text,
                                         std::string* error = nullptr);

// Reads the whole file then parses it. Missing/unreadable file is reported
// through `error` like a syntax problem.
[[nodiscard]] std::optional<Value> parse_file(const std::string& path,
                                              std::string* error = nullptr);

}  // namespace seer::util::json
