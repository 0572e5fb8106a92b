/**
 * @file
 * leaselint — protocol lint for the LeaseOS reproduction.
 *
 * Usage:
 *   leaselint [--root DIR] [--rule NAME]... [--sarif OUT] [--stats]
 *             [--list-rules] [--rules-doc] [PATH...]
 *
 * PATHs are root-relative files or directories (default: src bench
 * examples tools tests), linted in one serial pass. Exits 1 when any
 * unsuppressed finding remains, so CI can gate on it. Suppress a
 * finding in place with `// leaselint: allow(<rule>) -- justification`.
 *
 *   --stats            print the two pass timings to stderr
 *   --sarif OUT        write findings as SARIF 2.1.0 (with fix-it hints
 *                      for pairing findings) for code-scanning upload
 */

#include <iostream>
#include <string>

#include "leaselint/driver.h"
#include "leaselint/rules.h"
#include "leaselint/sarif.h"

int
main(int argc, char **argv)
{
    leaselint::LintOptions options;
    std::string sarifPath;
    bool stats = false;
    bool defaultPaths = true;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            options.root = argv[++i];
        } else if (arg == "--rule" && i + 1 < argc) {
            options.rules.push_back(argv[++i]);
        } else if (arg == "--sarif" && i + 1 < argc) {
            sarifPath = argv[++i];
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--list-rules") {
            for (const auto &rule : leaselint::allRules())
                std::cout << rule.name << ": " << rule.description << "\n";
            return 0;
        } else if (arg == "--rules-doc") {
            std::cout << leaselint::renderRulesMarkdown();
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: leaselint [--root DIR] [--rule NAME]... "
                   "[--sarif OUT] [--stats] [--list-rules] [--rules-doc] "
                   "[PATH...]\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "leaselint: unknown option " << arg << "\n";
            return 2;
        } else {
            if (defaultPaths) {
                options.paths.clear();
                defaultPaths = false;
            }
            options.paths.push_back(arg);
        }
    }

    for (const std::string &rule : options.rules) {
        if (!leaselint::isKnownRule(rule)) {
            std::cerr << "leaselint: unknown rule " << rule
                      << " (see --list-rules)\n";
            return 2;
        }
    }

    leaselint::LintReport report = leaselint::runLint(options);

    for (const auto &finding : report.findings)
        std::cout << leaselint::formatFinding(finding) << "\n";
    if (!sarifPath.empty() && !leaselint::writeSarif(report, sarifPath)) {
        std::cerr << "leaselint: cannot write " << sarifPath << "\n";
        return 2;
    }
    std::cerr << "leaselint: " << report.filesScanned << " files, "
              << report.findings.size() << " finding(s), "
              << report.suppressed << " suppressed\n";
    if (stats) {
        std::cerr << "leaselint: index " << report.indexMillis
                  << " ms, link " << report.linkMillis << " ms\n";
    }
    return report.findings.empty() ? 0 : 1;
}
