#include "harness/study/misbehavior_study.h"

namespace leaseos::harness::study {

const char *
caseTypeName(CaseType t)
{
    switch (t) {
      case CaseType::FAB: return "FAB";
      case CaseType::LHB: return "LHB";
      case CaseType::LUB: return "LUB";
      case CaseType::EUB: return "EUB";
      case CaseType::Unknown: return "N/A";
    }
    return "?";
}

namespace {

/** (type, cause, count) cells of Table 2, as published. */
struct Cell {
    CaseType type;
    RootCause cause;
    int count;
};

constexpr Cell kCells[] = {
    {CaseType::FAB, RootCause::Bug, 10},
    {CaseType::FAB, RootCause::Configuration, 1},
    {CaseType::FAB, RootCause::Enhancement, 1},
    {CaseType::LHB, RootCause::Bug, 18},
    {CaseType::LHB, RootCause::Configuration, 5},
    {CaseType::LUB, RootCause::Bug, 23},
    {CaseType::LUB, RootCause::Configuration, 4},
    {CaseType::LUB, RootCause::Enhancement, 1},
    {CaseType::EUB, RootCause::Bug, 8},
    {CaseType::EUB, RootCause::Configuration, 18},
    {CaseType::EUB, RootCause::Enhancement, 5},
    {CaseType::EUB, RootCause::Unknown, 3},
    {CaseType::Unknown, RootCause::Unknown, 12},
};

/** Pool of app identities; the study spans 81 popular apps. */
constexpr int kDistinctApps = 81;

std::vector<StudyCase>
buildCorpus()
{
    std::vector<StudyCase> cases;
    int app_index = 0;
    const char *sources[] = {"github", "googlecode", "xda-forum",
                             "android-forum"};
    for (const auto &cell : kCells) {
        for (int i = 0; i < cell.count; ++i) {
            StudyCase c;
            c.app = "app-" + std::to_string(app_index % kDistinctApps);
            c.source = sources[app_index % 4];
            c.type = cell.type;
            c.cause = cell.cause;
            cases.push_back(std::move(c));
            ++app_index;
        }
    }
    return cases;
}

} // namespace

const std::vector<StudyCase> &
corpus()
{
    static const std::vector<StudyCase> cases = buildCorpus();
    return cases;
}

std::map<CaseType, std::map<RootCause, int>>
summarize()
{
    std::map<CaseType, std::map<RootCause, int>> counts;
    for (const auto &c : corpus()) ++counts[c.type][c.cause];
    return counts;
}

int
distinctApps()
{
    std::map<std::string, int> apps;
    for (const auto &c : corpus()) ++apps[c.app];
    return static_cast<int>(apps.size());
}

Finding1
finding1()
{
    int defect = 0;
    int eub = 0;
    int total = static_cast<int>(corpus().size());
    for (const auto &c : corpus()) {
        if (c.type == CaseType::FAB || c.type == CaseType::LHB ||
            c.type == CaseType::LUB)
            ++defect;
        if (c.type == CaseType::EUB) ++eub;
    }
    return {100.0 * defect / total, 100.0 * eub / total};
}

Finding2
finding2()
{
    int defect = 0;
    int defect_bug = 0;
    int eub = 0;
    int eub_nonbug = 0;
    for (const auto &c : corpus()) {
        bool is_defect_class = c.type == CaseType::FAB ||
            c.type == CaseType::LHB || c.type == CaseType::LUB;
        if (is_defect_class) {
            ++defect;
            if (c.cause == RootCause::Bug) ++defect_bug;
        }
        if (c.type == CaseType::EUB) {
            ++eub;
            if (c.cause != RootCause::Bug) ++eub_nonbug;
        }
    }
    return {100.0 * defect_bug / defect, 100.0 * eub_nonbug / eub};
}

} // namespace leaseos::harness::study
