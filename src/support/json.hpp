// JSON string escaping shared by the service's stats reply and the example
// tools' --json output.
#pragma once

#include <string>

namespace spar::support {

/// Returns `s` escaped for use inside a JSON string literal (quotes not
/// included): `"` and `\` get a backslash, newline/tab/carriage return use
/// their short forms, every other byte below 0x20 becomes \u00XX, and all
/// bytes >= 0x20 (UTF-8 continuation bytes included) pass through unchanged.
std::string json_escape(const std::string& s);

}  // namespace spar::support
