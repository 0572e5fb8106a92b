/**
 * @file
 * flat-map-hotpath: informational rule flagging node-based maps and sets
 * in hot-path code (src/sim/ and src/power/).
 *
 * Every simulated event funnels through these two directories, so a
 * std::map, std::set or an unordered one there usually means a per-event
 * pointer chase and a per-insert heap allocation — exactly what the
 * DESIGN.md §8 zero-allocation discipline forbids on the steady state.
 * The preferred shapes are dense vectors indexed by an interned id
 * (EnergyAccountant's uid slots), sorted vectors (AudioModel's players) or
 * common::InlineVec for small keyed tables (CpuModel's task list).
 *
 * The rule is informational: cold-path survivors (per-run statistics
 * keyed by uid, built once and read at teardown) are fine — suppress them
 * with `// leaselint: allow(flat-map-hotpath)` plus a justification, like
 * any other rule.
 */

#include "leaselint/rules.h"

namespace leaselint {

namespace {

constexpr const char *kNodeTokens[] = {
    "map",
    "multimap",
    "unordered_map",
    "unordered_multimap",
    "set",
    "multiset",
    "unordered_set",
    "unordered_multiset",
};

} // namespace

void
checkFlatMapHotpath(const SourceFile &file, std::vector<Finding> &out)
{
    if (!underDir(file.path(), "src/sim") &&
        !underDir(file.path(), "src/power"))
        return;
    for (std::size_t line = 1; line <= file.lineCount(); ++line) {
        const std::string &code = file.codeLine(line);
        std::size_t first = code.find_first_not_of(" \t");
        if (first != std::string::npos && code[first] == '#') continue;
        for (const char *token : kNodeTokens) {
            // Only qualified uses: a bare `map` or `set` identifier is
            // too common (member names, comments stripped already, but
            // locals like `bitmap` and calls like `std::setw` are
            // skipped by findToken's word boundary — `std::map`/
            // `std::set` is the signal).
            std::size_t pos = findToken(code, token);
            while (pos != std::string::npos) {
                if (pos >= 5 && code.compare(pos - 5, 5, "std::") == 0) {
                    out.push_back(
                        {"flat-map-hotpath", file.path(), line,
                         std::string("std::") + token +
                             " in hot-path code: node-based containers "
                             "allocate per insert and chase pointers "
                             "per lookup; use a dense slot-indexed "
                             "array or common::InlineVec, or suppress "
                             "with a justification (DESIGN.md §8)"});
                    break; // one finding per line per token
                }
                pos = findToken(code, token, pos + 1);
            }
        }
    }
}

} // namespace leaselint
