/**
 * @file
 * leaselint_bench — wall-clock gate for the two-pass engine.
 *
 * Lints the whole repository once, from source, in the same serial
 * pipeline the CLI runs. Prints the wall time beside the two pass
 * timings and fails when the run reaches the budget (default 2000 ms).
 * Run by ctest as `leaselint_bench`.
 *
 * Usage: leaselint_bench --root DIR [--cold-budget-ms N]
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>

#include "leaselint/driver.h"

int
main(int argc, char **argv)
{
    leaselint::LintOptions options;
    double coldBudgetMs = 2000.0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) options.root = argv[++i];
        else if (arg == "--cold-budget-ms" && i + 1 < argc)
            coldBudgetMs = std::strtod(argv[++i], nullptr);
        else {
            std::cerr << "usage: leaselint_bench --root DIR "
                         "[--cold-budget-ms N]\n";
            return 2;
        }
    }

    auto start = std::chrono::steady_clock::now();
    leaselint::LintReport report = leaselint::runLint(options);
    double wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();

    std::cout << "leaselint_bench: " << report.filesScanned << " files, "
              << report.findings.size() << " finding(s)\n"
              << "  cold: " << wallMs << " ms (index " << report.indexMillis
              << " ms, link " << report.linkMillis << " ms, budget "
              << coldBudgetMs << " ms)\n";

    if (wallMs >= coldBudgetMs) {
        std::cout << "FAIL: cold run over budget\n";
        return 1;
    }
    return 0;
}
