#ifndef LEASEOS_HARNESS_STUDY_MISBEHAVIOR_STUDY_H
#define LEASEOS_HARNESS_STUDY_MISBEHAVIOR_STUDY_H

/**
 * @file
 * The §2.5 study of 109 real-world energy-misbehaviour cases in 81 apps.
 *
 * The paper's raw issue list is not published; the corpus here encodes the
 * per-case records consistent with Table 2's published marginals (case
 * type × root cause), with synthesized app identifiers drawn from the
 * study's population size. Table 2 is then *recomputed* from the corpus,
 * as are the two findings (prevalence; bug-share of FAB/LHB/LUB vs EUB).
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace leaseos::harness::study {

/** Case type — the §2.4 classes plus unresolved. */
enum class CaseType { FAB, LHB, LUB, EUB, Unknown };

/** Root cause category (§2.5). */
enum class RootCause { Bug, Configuration, Enhancement, Unknown };

const char *caseTypeName(CaseType t);

/** One studied issue. */
struct StudyCase {
    std::string app;
    std::string source; ///< github / googlecode / forum
    CaseType type;
    RootCause cause;
};

/** The encoded corpus (109 cases, 81 apps). */
const std::vector<StudyCase> &corpus();

/** Count matrix: type → cause → cases. */
std::map<CaseType, std::map<RootCause, int>> summarize();

/** Number of distinct apps in the corpus. */
int distinctApps();

/** Finding 1: share of cases that are FAB+LHB+LUB, and EUB (percent). */
struct Finding1 {
    double defectSharePct;  ///< FAB+LHB+LUB
    double eubSharePct;
};
Finding1 finding1();

/** Finding 2: bug-share within FAB/LHB/LUB and non-bug share within EUB. */
struct Finding2 {
    double defectBugSharePct;   ///< ~80 %
    double eubNonBugSharePct;   ///< ~77 %
};
Finding2 finding2();

} // namespace leaseos::harness::study

#endif // LEASEOS_HARNESS_STUDY_MISBEHAVIOR_STUDY_H
