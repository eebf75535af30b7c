// The JSON reader lives in util/json_value.hpp; this alias keeps the
// net::JsonValue spelling that servebench/main.cpp uses.  Delete it once
// servebench includes util/json_value.hpp (ROADMAP, servebench item).
#pragma once

#include "util/json_value.hpp"

namespace lamps::net {

using JsonValue = ::lamps::JsonValue;

}  // namespace lamps::net
