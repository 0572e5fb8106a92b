#include "leaselint/sarif.h"

#include <fstream>
#include <sstream>

#include "leaselint/rules.h"
#include "support/minijson.h"

namespace leaselint {

using leaseos::minijson::escape;

std::string
sarifReport(const LintReport &report)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json"
          "\",\n";
    os << "  \"version\": \"2.1.0\",\n";
    os << "  \"runs\": [\n";
    os << "    {\n";
    os << "      \"tool\": {\n";
    os << "        \"driver\": {\n";
    os << "          \"name\": \"leaselint\",\n";
    os << "          \"informationUri\": "
          "\"https://example.invalid/leaselint\",\n";
    os << "          \"rules\": [\n";
    const auto &rules = allRules();
    for (std::size_t i = 0; i < rules.size(); ++i) {
        os << "            {\"id\": \"" << escape(rules[i].name)
           << "\", \"shortDescription\": {\"text\": \""
           << escape(rules[i].description) << "\"}}"
           << (i + 1 < rules.size() ? "," : "") << "\n";
    }
    os << "          ]\n";
    os << "        }\n";
    os << "      },\n";
    os << "      \"results\": [\n";
    const auto &findings = report.findings;
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        os << "        {\"ruleId\": \"" << escape(f.rule)
           << "\", \"level\": \"error\", \"message\": {\"text\": \""
           << escape(f.message)
           << "\"}, \"locations\": [{\"physicalLocation\": "
              "{\"artifactLocation\": {\"uri\": \""
           << escape(f.path) << "\"}, \"region\": {\"startLine\": "
           << (f.line > 0 ? f.line : 1) << "}}}]";
        if (f.fix) {
            // A fix-it: insert fix->insertText at the start of fix->line
            // (zero-length deletedRegion = pure insertion).
            os << ", \"fixes\": [{\"description\": {\"text\": \""
               << escape(f.fix->description)
               << "\"}, \"artifactChanges\": [{\"artifactLocation\": "
                  "{\"uri\": \""
               << escape(f.path)
               << "\"}, \"replacements\": [{\"deletedRegion\": "
                  "{\"startLine\": "
               << (f.fix->line > 0 ? f.fix->line : 1)
               << ", \"startColumn\": 1, \"endColumn\": 1}, "
                  "\"insertedContent\": {\"text\": \""
               << escape(f.fix->insertText) << "\"}}]}]}]";
        }
        os << "}" << (i + 1 < findings.size() ? "," : "") << "\n";
    }
    os << "      ]\n";
    os << "    }\n";
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

bool
writeSarif(const LintReport &report, const std::string &path)
{
    std::ofstream out(path);
    if (!out) return false;
    out << sarifReport(report);
    return static_cast<bool>(out);
}

} // namespace leaselint
