// Shared JSON string escaping.
//
// Three serializers used to hand-roll this independently (benchlib's
// pnc-bench-v1 records, the Chrome trace exporter, and the report/event
// dumps). They now share this one escaper so every producer
// agrees on the same treatment of quotes, backslashes, and control bytes.
//
// Scope note: this escapes for emission *inside* a JSON string literal (no
// surrounding quotes are added), it never re-encodes valid printable bytes,
// and it makes no attempt at UTF-8 validation — bytes >= 0x20 pass through
// untouched, which matches how the rest of the codebase treats names as
// opaque byte strings.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>
#include <string_view>

namespace pnc::json {

/// Append `s`, JSON-escaped, to `out` (no surrounding quotes).
inline void AppendEscaped(std::string& out, std::string_view s) {
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
        break;
    }
  }
}

/// Append `s` as a quoted, escaped JSON string.
inline void AppendQuoted(std::string& out, std::string_view s) {
  out += '"';
  AppendEscaped(out, s);
  out += '"';
}

/// Append printf-formatted text to `out` (the serializers' number writer).
__attribute__((format(printf, 2, 3))) inline void AppendF(std::string& out,
                                                          const char* fmt,
                                                          ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n < 0) return;
  if (static_cast<std::size_t>(n) < sizeof buf) {
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(n) + 1);
  va_start(ap, fmt);
  std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt, ap);
  va_end(ap);
  out.pop_back();
}

/// Return `s` JSON-escaped (no surrounding quotes).
inline std::string Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(out, s);
  return out;
}

}  // namespace pnc::json
