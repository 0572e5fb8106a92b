#ifndef LEASELINT_INDEX_H
#define LEASELINT_INDEX_H

/**
 * @file
 * Pass 1 of the two-pass engine: the per-file index.
 *
 * `buildIndex()` reduces one SourceFile to a FileIndex — the structural
 * facts the whole-repo (link) rules need, plus the findings of every
 * per-file rule, plus the suppression map. A FileIndex is a pure function
 * of the file's bytes.
 *
 * Structural facts extracted:
 *  - function definitions with scope-qualified names ("Class::method",
 *    constructors detected as "X::X", destructors as "X::~X") and their
 *    1-based line spans, including constructor initializer lists;
 *  - call sites (callee's unqualified name, enclosing function, whether
 *    the call is through `.`/`->`);
 *  - acquire/release resource sites against the OS-service API pairs;
 *  - MetricRegistry registration sites (counter/gauge/histogram/bound*);
 *  - `enum class` definitions and `switch` descriptors for the
 *    switch-exhaustive link rule.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "leaselint/rule.h"
#include "leaselint/source.h"

namespace leaselint {

/** Sentinel for "call site not inside any function" (file scope). */
inline constexpr std::uint32_t kNoFunc = 0xffffffffu;

/** Acquire/release vocabulary of the OS services (src/os headers). */
struct ApiPair {
    const char *acquire;
    const char *release;
};

/** The shared acquire/release pair table (indexing + pairing rule). */
const std::vector<ApiPair> &apiPairs();

struct FuncDef {
    std::string name;           ///< scope-qualified, e.g. "Torch::start"
    std::size_t startLine = 0;  ///< line of the header's name token
    std::size_t endLine = 0;    ///< line of the closing '}'
};

struct CallSite {
    std::uint32_t func = kNoFunc; ///< enclosing FuncDef index (or kNoFunc)
    std::string callee;           ///< unqualified callee name
    std::size_t line = 0;
    bool method = false;          ///< called through '.' or '->'
};

struct ResourceSite {
    std::uint32_t func = kNoFunc;
    std::uint16_t pair = 0; ///< index into apiPairs()
    bool release = false;   ///< acquire side when false
    std::size_t line = 0;
    std::size_t indent = 0; ///< leading spaces (for fix-it rendering)
};

/** MetricRegistry registration call (counter/gauge/histogram/bound*). */
struct RegSite {
    std::uint32_t func = kNoFunc;
    std::string methodName;
    std::size_t line = 0;
};

struct EnumDef {
    std::string name;
    std::vector<std::string> values;
};

/** One `case E::V` population of a switch, grouped by enum name. */
struct SwitchSite {
    std::size_t line = 0;
    bool hasDefault = false;
    std::string enumName;            ///< qualifier guessed from case labels
    std::vector<std::string> values; ///< enumerators named in case labels
};

struct FileIndex {
    std::string path; ///< root-relative, '/'-separated

    std::vector<FuncDef> funcs;
    std::vector<CallSite> calls;
    std::vector<ResourceSite> resources;
    std::vector<RegSite> regs;
    std::vector<EnumDef> enums;
    std::vector<SwitchSite> switches;

    /** Per-file rule findings, pre-suppression. */
    std::vector<Finding> findings;
    /** allows[i] = rules suppressed on line i+1 (from allow() comments). */
    std::vector<std::vector<std::string>> allows;

    bool allowed(const std::string &rule, std::size_t line) const;
};

/** Index one file: structure extraction plus every per-file rule. */
FileIndex buildIndex(const SourceFile &file);

} // namespace leaselint

#endif // LEASELINT_INDEX_H
