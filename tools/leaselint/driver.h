#ifndef LEASELINT_DRIVER_H
#define LEASELINT_DRIVER_H

/**
 * @file
 * The lint driver: file discovery, the two-pass engine, and central
 * suppression filtering. Split from main() so the unit tests and the
 * bench can run the full pipeline over in-memory sources or a live
 * tree.
 *
 * One serial pipeline serves every caller: the on-disk entry point
 * collects the files in path order, reads them and hands them to the
 * in-memory one. Pass 1 (index) reduces each source to a FileIndex.
 * Pass 2 (link) joins the indexes into a CallGraph and runs the
 * whole-repo rules. Findings are filtered against the allow()
 * suppression maps centrally. Output order is deterministic (path,
 * line, rule, message).
 */

#include <string>
#include <vector>

#include "leaselint/index.h"
#include "leaselint/rule.h"
#include "leaselint/source.h"

namespace leaselint {

struct LintOptions {
    /** Repository root; scanned paths and findings are relative to it. */
    std::string root = ".";
    /** Root-relative directories/files to lint (default: the repo). */
    std::vector<std::string> paths = {"src", "bench", "examples", "tools",
                                      "tests"};
    /** Rule names to run (empty = all). */
    std::vector<std::string> rules;
};

struct LintReport {
    std::vector<Finding> findings; ///< surviving (unsuppressed) findings
    std::size_t suppressed = 0;    ///< findings silenced by allow()
    std::size_t filesScanned = 0;
    double indexMillis = 0.0; ///< pass 1 wall time
    double linkMillis = 0.0;  ///< pass 2 wall time
};

/**
 * Run the full two-pass pipeline over in-memory @p files.
 * @p rules empty = all rules.
 */
LintReport runLint(const std::vector<SourceFile> &files,
                   const std::vector<std::string> &rules = {});

/**
 * Read the files under options.root in path order and run the selected
 * rules over them. An unreadable file is skipped.
 */
LintReport runLint(const LintOptions &options);

/** Render one finding as "path:line: [rule] message". */
std::string formatFinding(const Finding &finding);

} // namespace leaselint

#endif // LEASELINT_DRIVER_H
