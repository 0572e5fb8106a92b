#include "leaselint/driver.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <tuple>
#include <unordered_map>

#include "leaselint/callgraph.h"
#include "leaselint/rules.h"

namespace leaselint {

namespace fs = std::filesystem;

namespace {

bool
lintableExtension(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

/**
 * Lint test fixture corpora (tests/tools/fixtures/) are lint test DATA —
 * deliberately defective sources the unit tests load under src/-style
 * display paths — not lintable code. The build excludes them from the
 * test glob for the same reason.
 */
bool
isFixturePath(const std::string &rel)
{
    return rel.find("/fixtures/") != std::string::npos;
}

/** Collect lintable files under root/rel (or the single file itself). */
void
collect(const fs::path &root, const std::string &rel,
        std::vector<std::pair<std::string, fs::path>> &out)
{
    fs::path abs = root / rel;
    std::error_code ec;
    if (fs::is_regular_file(abs, ec)) {
        out.emplace_back(rel, abs);
        return;
    }
    if (!fs::is_directory(abs, ec)) return;
    for (fs::recursive_directory_iterator it(abs, ec), end;
         it != end && !ec; it.increment(ec)) {
        if (!it->is_regular_file(ec) || !lintableExtension(it->path()))
            continue;
        std::string relPath =
            fs::relative(it->path(), root, ec).generic_string();
        if (isFixturePath(relPath)) continue;
        out.emplace_back(std::move(relPath), it->path());
    }
}

bool
ruleEnabled(const std::vector<std::string> &rules, const char *name)
{
    return rules.empty() ||
           std::find(rules.begin(), rules.end(), name) != rules.end();
}

/**
 * Pass 2 plus reporting: link the indexes, run the whole-repo rules,
 * filter suppressions, sort. Fills findings/suppressed/linkMillis.
 */
void
linkAndReport(RepoIndex &&repo, const std::vector<std::string> &rules,
              LintReport &report)
{
    auto start = std::chrono::steady_clock::now();

    std::vector<Finding> raw;
    for (const FileIndex &file : repo.files)
        for (const Finding &finding : file.findings)
            if (ruleEnabled(rules, finding.rule.c_str()))
                raw.push_back(finding);

    bool needGraph = ruleEnabled(rules, "cross-unit-pairing") ||
                     ruleEnabled(rules, "registry-contract");
    if (needGraph) {
        CallGraph graph(repo);
        if (ruleEnabled(rules, "cross-unit-pairing"))
            linkCrossUnitPairing(repo, graph, raw);
        if (ruleEnabled(rules, "registry-contract"))
            linkRegistryContract(repo, graph, raw);
    }
    if (ruleEnabled(rules, "switch-exhaustive"))
        linkSwitchExhaustive(repo, raw);

    // Central suppression filtering against the allow() maps.
    std::unordered_map<std::string, const FileIndex *> byPath;
    for (const FileIndex &file : repo.files) byPath[file.path] = &file;
    for (Finding &finding : raw) {
        auto it = byPath.find(finding.path);
        if (it != byPath.end() &&
            it->second->allowed(finding.rule, finding.line)) {
            ++report.suppressed;
        } else {
            report.findings.push_back(std::move(finding));
        }
    }

    std::sort(report.findings.begin(), report.findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.path, a.line, a.rule, a.message) <
                         std::tie(b.path, b.line, b.rule, b.message);
              });

    report.linkMillis =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
}

} // namespace

LintReport
runLint(const std::vector<SourceFile> &files,
        const std::vector<std::string> &rules)
{
    LintReport report;
    report.filesScanned = files.size();

    auto start = std::chrono::steady_clock::now();
    RepoIndex repo;
    repo.files.reserve(files.size());
    for (const SourceFile &file : files)
        repo.files.push_back(buildIndex(file));
    report.indexMillis = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();

    linkAndReport(std::move(repo), rules, report);
    return report;
}

LintReport
runLint(const LintOptions &options)
{
    std::vector<std::pair<std::string, fs::path>> paths;
    for (const std::string &rel : options.paths)
        collect(options.root, rel, paths);
    std::sort(paths.begin(), paths.end());
    paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

    std::vector<SourceFile> files;
    files.reserve(paths.size());
    for (const auto &[rel, abs] : paths)
        if (auto file = SourceFile::load(abs.string(), rel))
            files.push_back(std::move(*file));
    return runLint(files, options.rules);
}

std::string
formatFinding(const Finding &finding)
{
    return finding.path + ":" + std::to_string(finding.line) + ": [" +
           finding.rule + "] " + finding.message;
}

} // namespace leaselint
