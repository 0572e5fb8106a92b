#ifndef LEASELINT_RULES_H
#define LEASELINT_RULES_H

/**
 * @file
 * The built-in rules, split by engine phase.
 *
 * Per-file rules run as each file is indexed (pass 1); link rules run
 * once over the linked repo (pass 2). A lint runs both passes serially
 * over the sources and caches nothing between lints.
 *
 * Rule inventory:
 *  - determinism:          wall-clock / rand() / unordered containers in
 *                          simulation code (results must be
 *                          bit-reproducible across runs and job counts);
 *  - ptr-ordered-iteration: ordered containers keyed on raw pointers in
 *                          src/ — iteration order is address-dependent,
 *                          which breaks run-to-run determinism under
 *                          ASLR even with a fixed seed;
 *  - macro-side-effect:    mutating expressions inside LEASEOS_TRACE /
 *                          LEASEOS_ORACLE arguments — those compile out
 *                          in default builds, so the side effect only
 *                          happens in traced/checked builds;
 *  - proxy-bypass:         service interposition mutators used outside
 *                          proxies/mitigation/OS code;
 *  - flat-map-hotpath:     node-based maps in src/sim + src/power
 *                          (informational, DESIGN.md §8);
 *  - bad-suppression:      allow() comments naming unknown rules — a
 *                          typo there silently disables nothing and the
 *                          finding the author meant to suppress fires;
 *  - cross-unit-pairing:   acquire/release balance per app unit, traced
 *                          through helper calls across translation units
 *                          (supersedes the PR-2 file-local `pairing`);
 *  - switch-exhaustive:    switches over the core lease enums that do
 *                          not name every enumerator;
 *  - registry-contract:    MetricRegistry registration reachable from
 *                          post-construction / hot code (registration is
 *                          single-threaded and allocates; it must stay
 *                          in construction or init/setup paths).
 */

#include <vector>

#include "leaselint/callgraph.h"
#include "leaselint/index.h"
#include "leaselint/rule.h"
#include "leaselint/source.h"

namespace leaselint {

struct RuleInfo {
    const char *name;
    const char *description;
    /** true: pass-2 link rule (whole repo); false: pass-1 per-file. */
    bool link = false;
};

/** Every built-in rule, in report order. */
const std::vector<RuleInfo> &allRules();

/** True if @p name names a built-in rule. */
bool isKnownRule(const std::string &name);

/**
 * The committed rule-inventory doc (tools/leaselint/RULES.md), rendered
 * from allRules(). `leaselint --rules-doc` prints it; test_leaselint
 * gates that the committed file matches, so the doc can never drift from
 * the inventory.
 */
std::string renderRulesMarkdown();

// ---- per-file rules (pass 1; run as each file is indexed) ---------------

void checkDeterminism(const SourceFile &file, std::vector<Finding> &out);
void checkPtrOrderedIteration(const SourceFile &file,
                              std::vector<Finding> &out);
void checkMacroSideEffect(const SourceFile &file, std::vector<Finding> &out);
void checkProxyBypass(const SourceFile &file, std::vector<Finding> &out);
void checkFlatMapHotpath(const SourceFile &file, std::vector<Finding> &out);
void checkBadSuppression(const SourceFile &file, std::vector<Finding> &out);

// ---- link rules (pass 2; run over the linked repo) ----------------------

void linkCrossUnitPairing(const RepoIndex &repo, const CallGraph &graph,
                          std::vector<Finding> &out);
void linkSwitchExhaustive(const RepoIndex &repo, std::vector<Finding> &out);
void linkRegistryContract(const RepoIndex &repo, const CallGraph &graph,
                          std::vector<Finding> &out);

} // namespace leaselint

#endif // LEASELINT_RULES_H
