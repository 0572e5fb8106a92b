#ifndef LEASELINT_RULE_H
#define LEASELINT_RULE_H

/**
 * @file
 * The leaselint finding model.
 *
 * Rules come in two flavours on the two-pass engine (see index.h and
 * driver.h):
 *  - *per-file* rules run during pass 1 (indexing) and their findings are
 *    kept in each file's FileIndex;
 *  - *link* rules run during pass 2 over the linked RepoIndex/CallGraph
 *    and may relate facts across translation units.
 *
 * Rules emit findings unconditionally; the driver filters suppressed ones
 * against the `// leaselint: allow(<rule>)` maps afterwards, so the
 * suppressed count stays visible in the report.
 */

#include <cstddef>
#include <optional>
#include <string>

namespace leaselint {

/**
 * A machine-applicable remedy attached to a finding, exported as a SARIF
 * `fix` object: insert @p insertText (newline-terminated) above 1-based
 * @p line of the finding's file.
 */
struct FixIt {
    std::string description;
    std::size_t line = 0;
    std::string insertText;
};

struct Finding {
    std::string rule;
    std::string path;
    std::size_t line = 0;
    std::string message;
    std::optional<FixIt> fix{};
};

} // namespace leaselint

#endif // LEASELINT_RULE_H
