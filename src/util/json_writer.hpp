// The one JSON writer: every byte-stable output of the repository (bench
// --json/--metrics/--snapshots, the serve JSONL, instance traces, Chrome
// traces, the telemetry endpoints) spells its integers, doubles, strings and
// member separators here and nowhere else (DESIGN.md §8).
//
// Spellings:
//   * unsigned integers in decimal;
//   * doubles in exactly three printf spellings, chosen by the caller —
//     g9 (%.9g), f6 (%.6f) and g6 (%g) — rendered locale-independently, so
//     a value prints the same bytes on every run;
//   * strings quoted, with '"', '\\' and every byte below 0x20 escaped as
//     RFC 8259 requires (\b \f \n \r \t, else \u00XX); bytes at or above
//     0x80 pass through unchanged, so UTF-8 names round-trip.
//
// Writer is the object/array helper: ", " between members, "key": before a
// keyed value, and raw() for an already-rendered fragment (a nested dump, a
// list of members). It has no DOM, no streaming and no indentation; the
// pretty-printed files write their own newlines between Writer-built lines.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace seer::util::json {

void put_u64(std::string& out, std::uint64_t v);
void put_g9(std::string& out, double v);
void put_f6(std::string& out, double v);
void put_g6(std::string& out, double v);
void put_string(std::string& out, std::string_view s);
// `"key": ` — the key escaped like any string.
void put_key(std::string& out, std::string_view key);

class Writer {
 public:
  explicit Writer(std::string& out) noexcept : out_(out) {}

  // Starts a member: the separator when one is due, then `"key": `.
  Writer& key(std::string_view k) {
    sep();
    put_key(out_, k);
    return *this;
  }

  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }

  Writer& u64(std::uint64_t v) { return put(put_u64, v); }
  Writer& g9(double v) { return put(put_g9, v); }
  Writer& f6(double v) { return put(put_f6, v); }
  Writer& str(std::string_view s) { return put(put_string, s); }
  Writer& boolean(bool b) {
    sep();
    out_ += b ? "true" : "false";
    return done();
  }
  // Appends already-rendered JSON verbatim: a value, or a run of members.
  // An empty fragment writes nothing, not even a separator.
  Writer& raw(std::string_view fragment) {
    if (fragment.empty()) return *this;
    sep();
    out_ += fragment;
    return done();
  }

  Writer& begin_object(std::string_view k) { return key(k).begin_object(); }
  Writer& begin_array(std::string_view k) { return key(k).begin_array(); }
  Writer& u64(std::string_view k, std::uint64_t v) { return key(k).u64(v); }
  Writer& g9(std::string_view k, double v) { return key(k).g9(v); }
  Writer& f6(std::string_view k, double v) { return key(k).f6(v); }
  Writer& str(std::string_view k, std::string_view s) { return key(k).str(s); }
  Writer& boolean(std::string_view k, bool b) { return key(k).boolean(b); }
  Writer& raw(std::string_view k, std::string_view fragment) {
    return key(k).raw(fragment);
  }

 private:
  void sep() {
    if (need_sep_) out_ += ", ";
    need_sep_ = false;
  }
  Writer& done() {
    need_sep_ = true;
    return *this;
  }
  Writer& open(char c) {
    sep();
    out_ += c;
    return *this;
  }
  Writer& close(char c) {
    out_ += c;
    return done();
  }
  template <typename Fn, typename T>
  Writer& put(Fn fn, T v) {
    sep();
    fn(out_, v);
    return done();
  }

  std::string& out_;
  bool need_sep_ = false;
};

}  // namespace seer::util::json
