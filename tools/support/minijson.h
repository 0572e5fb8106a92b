#ifndef LEASEOS_TOOLS_SUPPORT_MINIJSON_H
#define LEASEOS_TOOLS_SUPPORT_MINIJSON_H

/**
 * @file
 * minijson — the small recursive-descent JSON reader shared by the
 * offline tools (tools/tracereplay, tools/metricsdiff), and the string
 * escaper that metricsdiff and leaselint's SARIF writer share. The repo's
 * emitters (result_sink JsonSink, trace_export, flight_recorder) write
 * plain ASCII JSON; this reader covers full JSON anyway so hand-edited
 * fixtures and third-party files parse too.
 *
 * Design notes:
 *  - Objects preserve insertion order (vector of pairs), matching the
 *    deterministic registration-order contract of the emitters.
 *  - Numbers keep their raw source text alongside the double value:
 *    64-bit payloads (bit-cast doubles, lease ids) exceed the 53-bit
 *    mantissa, so exact comparisons (tracereplay --diff) use `raw` while
 *    numeric comparisons (metricsdiff tolerances) use `number`.
 *  - No exceptions: parse() returns a ParseResult with an error string
 *    and the 1-based line it occurred on.
 *  - Arrays and objects nest at most 512 deep; deeper input fails with
 *    "nesting too deep" instead of exhausting the stack.
 *
 * Deliberately an offline-tool dependency only — nothing in src/ links
 * this; the simulator itself never parses JSON.
 */

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace leaseos::minijson {

struct Value {
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string raw;  ///< number: raw source token; string: decoded text
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object; ///< insertion order

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member lookup (first match); nullptr when absent or not an object. */
    const Value *find(std::string_view key) const;

    /** number if Number, else 0.0. */
    double asNumber() const { return isNumber() ? number : 0.0; }
    /** decoded text if String, else "". */
    const std::string &asString() const;
};

struct ParseResult {
    Value value;
    std::string error; ///< empty on success
    std::size_t line = 0; ///< 1-based line of the error
    bool ok() const { return error.empty(); }
};

/** Parse one complete JSON document (trailing whitespace allowed). */
ParseResult parse(std::string_view text);

/** JSON string escaping (quotes, backslashes, control characters). */
std::string escape(std::string_view s);

} // namespace leaseos::minijson

#endif // LEASEOS_TOOLS_SUPPORT_MINIJSON_H
