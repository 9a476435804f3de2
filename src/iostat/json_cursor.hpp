// Minimal JSON reading shared by the iostat parsers (report.cpp and
// events.cpp). Internal to src/iostat — tools parse through the typed
// ParseReportJson / ParseEventsJson entry points instead.
//
// The cursor handles exactly the JSON the serializers emit plus arbitrary
// unknown members (SkipValue nests), which is what lets a schema object be
// fished out of surrounding output (bench records, stderr dumps).
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

namespace iostat::jsoncur {

struct Cursor {
  const char* p;
  const char* end;

  void SkipWs() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool Eat(char c) {
    SkipWs();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  bool ParseString(std::string* out) {
    SkipWs();
    if (p >= end || *p != '"') return false;
    ++p;
    out->clear();
    while (p < end && *p != '"') {
      char c = *p++;
      if (c == '\\' && p < end) {
        const char e = *p++;
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            // The escaper only emits \u00xx for control bytes; decode any
            // codepoint < 0x100 to one byte and reject the rest.
            if (p + 4 > end) return false;
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = *p++;
              v <<= 4;
              if (h >= '0' && h <= '9')
                v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                v |= static_cast<unsigned>(h - 'A' + 10);
              else
                return false;
            }
            if (v > 0xff) return false;
            c = static_cast<char>(v);
            break;
          }
          default: c = e; break;  // \" \\ \/
        }
      }
      out->push_back(c);
    }
    if (p >= end) return false;
    ++p;
    return true;
  }
  bool ParseNumber(double* out) {
    SkipWs();
    char* after = nullptr;
    *out = std::strtod(p, &after);
    if (after == p) return false;
    p = after;
    return true;
  }
  bool ParseU64(std::uint64_t* out) {
    double v = 0;
    if (!ParseNumber(&v)) return false;
    *out = static_cast<std::uint64_t>(v);
    return true;
  }
  bool SkipValue() {
    SkipWs();
    if (p >= end) return false;
    if (*p == '"') {
      std::string s;
      return ParseString(&s);
    }
    if (*p == '{' || *p == '[') {
      const char open = *p;
      const char close = open == '{' ? '}' : ']';
      ++p;
      int depth = 1;
      while (p < end && depth > 0) {
        if (*p == '"') {
          std::string s;
          if (!ParseString(&s)) return false;
          continue;
        }
        if (*p == open) ++depth;
        if (*p == close) --depth;
        ++p;
      }
      return depth == 0;
    }
    // number / true / false / null
    while (p < end && *p != ',' && *p != '}' && *p != ']' &&
           !std::isspace(static_cast<unsigned char>(*p)))
      ++p;
    return true;
  }
};

/// Position `cur.p` at the '{' opening the object that contains the literal
/// `marker` (e.g. a schema tag), scanning forward from the current position.
/// Returns false if the marker is absent.
inline bool SeekObjectWithMarker(Cursor& cur, const char* marker) {
  const std::size_t n = std::strlen(marker);
  const char* hit = nullptr;
  for (const char* q = cur.p; q + n <= cur.end; ++q) {
    if (std::memcmp(q, marker, n) == 0) {
      hit = q;
      break;
    }
  }
  if (hit == nullptr) return false;
  // Walk back to the '{' that opens the object holding the marker's member.
  int depth = 0;
  for (const char* q = hit; q >= cur.p; --q) {
    if (*q == '}') ++depth;
    if (*q == '{') {
      if (depth == 0) {
        cur.p = q;
        return true;
      }
      --depth;
    }
  }
  return false;
}

}  // namespace iostat::jsoncur
