#include "util/env.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

namespace pnc::util {

namespace {

/// Warn once per variable name per process. Malformed values are a config
/// mistake, not an I/O failure, so diagnostics must never throw or abort.
void WarnOnce(const char* name, const char* value) {
  static std::set<std::string>* warned = new std::set<std::string>();
  if (!warned->insert(name).second) return;
  std::fprintf(stderr,
               "pnc: ignoring malformed %s=\"%s\" (not a number); "
               "using the built-in default\n",
               name, value);
}

/// The value parses iff strtod/strtoll consumed everything but trailing
/// whitespace. An empty value is treated as unset, not malformed.
bool FullyParsed(const char* value, const char* end) {
  if (end == value) return false;
  while (*end != '\0') {
    if (!std::isspace(static_cast<unsigned char>(*end))) return false;
    ++end;
  }
  return true;
}

}  // namespace

bool EnvSet(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0';
}

double EnvDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (!FullyParsed(v, end)) {
    WarnOnce(name, v);
    return def;
  }
  return parsed;
}

std::int64_t EnvInt(const char* name, std::int64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (!FullyParsed(v, end)) {
    WarnOnce(name, v);
    return def;
  }
  return static_cast<std::int64_t>(parsed);
}

bool EnvFlag(const char* name, bool def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return !(std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
           std::strcmp(v, "false") == 0);
}

}  // namespace pnc::util
