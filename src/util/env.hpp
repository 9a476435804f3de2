// Checked parsing of PNC_* environment variables.
//
// std::atof-style parsing silently accepts garbage ("3OO" parses as 3,
// "abc" as 0 — which can *disable a watchdog*). Every numeric PNC_* variable
// goes through these helpers instead: the whole value must parse (trailing
// junk is malformed), a malformed value falls back to the supplied default,
// and the first malformed read of each variable warns once on stderr so a
// typo'd environment is visible without spamming every rank thread.
#pragma once

#include <cstdint>

namespace pnc::util {

/// True when `name` is set to a non-empty value.
bool EnvSet(const char* name);

/// Parse `name` as a double. Unset/empty -> `def`. Malformed (the value does
/// not parse in full) -> `def`, with a once-per-variable stderr warning.
double EnvDouble(const char* name, double def);

/// Same contract for integers (base 10).
std::int64_t EnvInt(const char* name, std::int64_t def);

/// On/off switch. Unset/empty -> `def`; "0", "off" and "false" -> false;
/// any other value -> true.
bool EnvFlag(const char* name, bool def);

}  // namespace pnc::util
