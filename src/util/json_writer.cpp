#include "util/json_writer.hpp"

#include <charconv>

namespace seer::util::json {

namespace {

// std::to_chars with an explicit precision is specified as printf's "%.*g"
// / "%.*f" in the C locale, so these are the printf spellings without the
// locale lookup and format-string parse.
void put_double(std::string& out, double v, std::chars_format fmt, int precision) {
  char buf[400];  // %.6f of the largest double is 316 characters
  const auto r = std::to_chars(buf, buf + sizeof buf, v, fmt, precision);
  out.append(buf, r.ptr);
}

}  // namespace

void put_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

void put_g9(std::string& out, double v) {
  put_double(out, v, std::chars_format::general, 9);
}

void put_f6(std::string& out, double v) {
  put_double(out, v, std::chars_format::fixed, 6);
}

void put_g6(std::string& out, double v) {
  put_double(out, v, std::chars_format::general, 6);
}

void put_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && c != '"' && c != '\\') {
      out += c;
      continue;
    }
    out += '\\';
    switch (c) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '\b': out += 'b'; break;
      case '\f': out += 'f'; break;
      case '\n': out += 'n'; break;
      case '\r': out += 'r'; break;
      case '\t': out += 't'; break;
      default:
        out += "u00";
        out += kHex[u >> 4];
        out += kHex[u & 0xF];
    }
  }
  out += '"';
}

void put_key(std::string& out, std::string_view key) {
  put_string(out, key);
  out += ": ";
}

}  // namespace seer::util::json
