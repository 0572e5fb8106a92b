#include "metricsdiff/metricsdiff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/minijson.h"

namespace leaseos::metricsdiff {

namespace {

/** One flattened row: ordered (name, value) numeric cells + text cells. */
struct Row {
    std::string key;
    std::vector<std::pair<std::string, double>> numbers;
    std::vector<std::pair<std::string, std::string>> texts;
};

struct Document {
    std::vector<Row> rows;
    std::string error;
    bool ok() const { return error.empty(); }
};

void
flattenObjectRow(const minijson::Value &obj, Row &row)
{
    for (const auto &[name, value] : obj.object) {
        if (value.isNumber())
            row.numbers.emplace_back(name, value.number);
        else if (value.isString())
            row.texts.emplace_back(name, value.raw);
        // nested arrays/objects/bools are outside the metric model
    }
}

Document
extractRows(const minijson::Value &doc, const Options &options)
{
    Document out;
    if (!doc.isObject()) {
        out.error = "document is not a JSON object";
        return out;
    }
    const minijson::Value *rows = doc.find("rows");
    if (rows && rows->isArray()) {
        // JsonSink document. Pick the key column: --key, else the first
        // string-valued cell of the first row (e.g. "workload", "group").
        std::string keyColumn = options.keyColumn;
        if (keyColumn.empty() && !rows->array.empty()) {
            for (const auto &[name, value] : rows->array[0].object) {
                if (value.isString()) {
                    keyColumn = name;
                    break;
                }
            }
        }
        std::map<std::string, int> seen;
        for (std::size_t i = 0; i < rows->array.size(); ++i) {
            const minijson::Value &rowObj = rows->array[i];
            if (!rowObj.isObject()) {
                std::ostringstream err;
                err << "rows[" << i << "] is not an object";
                out.error = err.str();
                return out;
            }
            Row row;
            if (const minijson::Value *key = rowObj.find(keyColumn);
                key && key->isString()) {
                row.key = key->raw;
            } else {
                std::ostringstream fallback;
                fallback << "row#" << i;
                row.key = fallback.str();
            }
            // Duplicate keys stay distinct (#2, #3, ...), so repeated
            // groups in a table still pair up positionally by key.
            int n = ++seen[row.key];
            if (n > 1) {
                std::ostringstream suffixed;
                suffixed << row.key << "#" << n;
                row.key = suffixed.str();
            }
            flattenObjectRow(rowObj, row);
            out.rows.push_back(std::move(row));
        }
        return out;
    }
    // Flight record / snapshot: the "metrics" object, else the document's
    // own numeric members.
    const minijson::Value *metrics = doc.find("metrics");
    Row row;
    flattenObjectRow(metrics && metrics->isObject() ? *metrics : doc, row);
    if (row.numbers.empty()) {
        out.error = "no numeric metrics found (expected a JsonSink "
                    "\"rows\" table, a \"metrics\" object, or a flat "
                    "object of numbers)";
        return out;
    }
    row.texts.clear(); // headers like "bench"/"caption" are not metrics
    out.rows.push_back(std::move(row));
    return out;
}

const Row *
findRow(const std::vector<Row> &rows, const std::string &key)
{
    for (const Row &row : rows)
        if (row.key == key) return &row;
    return nullptr;
}

double
relativeError(double a, double b)
{
    const double scale = std::max(std::fabs(a), std::fabs(b));
    if (scale == 0.0) return 0.0;
    return std::fabs(a - b) / scale;
}

void
writeJsonString(const std::string &s, std::ostream &out)
{
    out << '"' << minijson::escape(s) << '"';
}

} // namespace

std::string
Finding::toString() const
{
    std::ostringstream out;
    out << (gating ? "FAIL" : "note") << " ";
    if (!row.empty()) out << row << ".";
    out << metric << " [" << kind << "]";
    if (kind == "out-of-tolerance" || kind == "drift") {
        out << ": " << a << " -> " << b << " (rel err " << relErr
            << ", tol " << tolerance << ")";
    } else if (kind == "missing-row" || kind == "missing-metric") {
        out << ": present in only one document";
    } else if (kind == "text-mismatch") {
        out << ": values differ";
    }
    return out.str();
}

DiffReport
diffDocuments(const minijson::Value &a, const minijson::Value &b,
              const Options &options)
{
    DiffReport report;
    Document docA = extractRows(a, options);
    Document docB = extractRows(b, options);
    if (!docA.ok() || !docB.ok()) {
        report.error = !docA.ok() ? "a: " + docA.error : "b: " + docB.error;
        return report;
    }

    std::vector<Finding> gating, info;
    auto emit = [&](Finding finding) {
        (finding.gating ? gating : info).push_back(std::move(finding));
    };

    auto toleranceFor = [&](const std::string &metric) {
        auto it = options.relTol.find(metric);
        return it == options.relTol.end() ? options.defaultRelTol
                                          : it->second;
    };

    for (const Row &rowA : docA.rows) {
        const Row *rowB = findRow(docB.rows, rowA.key);
        if (!rowB) {
            Finding f;
            f.row = rowA.key;
            f.metric = "*";
            f.kind = "missing-row";
            f.gating = true;
            emit(std::move(f));
            continue;
        }
        ++report.rowsCompared;
        for (const auto &[metric, valueA] : rowA.numbers) {
            Finding f;
            f.row = docA.rows.size() == 1 && rowA.key.empty() ? ""
                                                              : rowA.key;
            f.metric = metric;
            f.a = valueA;
            f.tolerance = toleranceFor(metric);
            const bool reportOnly = options.reportOnly.count(metric) != 0;
            auto it = std::find_if(
                rowB->numbers.begin(), rowB->numbers.end(),
                [&](const auto &cell) { return cell.first == metric; });
            if (it == rowB->numbers.end()) {
                f.kind = "missing-metric";
                f.gating = !reportOnly;
                emit(std::move(f));
                continue;
            }
            ++report.metricsCompared;
            f.b = it->second;
            f.relErr = relativeError(valueA, it->second);
            if (f.relErr == 0.0) continue; // identical: no finding
            if (f.relErr > f.tolerance && !reportOnly) {
                f.kind = "out-of-tolerance";
                f.gating = true;
            } else {
                f.kind = "drift";
                f.gating = false;
            }
            emit(std::move(f));
        }
        // Extra metrics on the B side only: schema grew — gate so the
        // baseline gets refreshed deliberately.
        for (const auto &[metric, valueB] : rowB->numbers) {
            bool inA = std::any_of(
                rowA.numbers.begin(), rowA.numbers.end(),
                [&](const auto &cell) { return cell.first == metric; });
            if (inA) continue;
            Finding f;
            f.row = rowA.key;
            f.metric = metric;
            f.b = valueB;
            f.kind = "missing-metric";
            f.gating = options.reportOnly.count(metric) == 0;
            emit(std::move(f));
        }
        for (const auto &[name, textA] : rowA.texts) {
            if (name == options.keyColumn) continue;
            auto it = std::find_if(
                rowB->texts.begin(), rowB->texts.end(),
                [&](const auto &cell) { return cell.first == name; });
            if (it != rowB->texts.end() && it->second != textA) {
                Finding f;
                f.row = rowA.key;
                f.metric = name;
                f.kind = "text-mismatch";
                f.gating = false; // labels/captions are informational
                emit(std::move(f));
            }
        }
    }
    for (const Row &rowB : docB.rows) {
        if (findRow(docA.rows, rowB.key)) continue;
        Finding f;
        f.row = rowB.key;
        f.metric = "*";
        f.kind = "missing-row";
        f.gating = true;
        emit(std::move(f));
    }

    report.pass = gating.empty();
    report.findings = std::move(gating);
    report.findings.insert(report.findings.end(), info.begin(), info.end());
    return report;
}

DiffReport
diffFiles(const std::string &pathA, const std::string &pathB,
          const Options &options)
{
    DiffReport report;
    auto load = [&](const std::string &path, minijson::Value &out) {
        std::ifstream in(path, std::ios::binary);
        if (!in.good()) {
            report.error = "cannot open " + path;
            return false;
        }
        std::ostringstream whole;
        whole << in.rdbuf();
        minijson::ParseResult parsed = minijson::parse(whole.str());
        if (!parsed.ok()) {
            std::ostringstream err;
            err << path << ": parse error (line " << parsed.line
                << "): " << parsed.error;
            report.error = err.str();
            return false;
        }
        out = std::move(parsed.value);
        return true;
    };
    minijson::Value a, b;
    if (!load(pathA, a) || !load(pathB, b)) return report;
    return diffDocuments(a, b, options);
}

std::string
renderVerdictJson(const DiffReport &report, const std::string &pathA,
                  const std::string &pathB)
{
    std::ostringstream out;
    out << "{\"verdict\":\""
        << (!report.ok() ? "error" : report.pass ? "pass" : "fail")
        << "\",\"a\":";
    writeJsonString(pathA, out);
    out << ",\"b\":";
    writeJsonString(pathB, out);
    if (!report.ok()) {
        out << ",\"error\":";
        writeJsonString(report.error, out);
        out << "}\n";
        return out.str();
    }
    out << ",\"rows_compared\":" << report.rowsCompared
        << ",\"metrics_compared\":" << report.metricsCompared
        << ",\"findings\":[";
    bool first = true;
    for (const Finding &f : report.findings) {
        if (!first) out << ',';
        first = false;
        out << "\n{\"row\":";
        writeJsonString(f.row, out);
        out << ",\"metric\":";
        writeJsonString(f.metric, out);
        out << ",\"kind\":";
        writeJsonString(f.kind, out);
        char nums[160];
        std::snprintf(nums, sizeof nums,
                      ",\"a\":%.17g,\"b\":%.17g,\"rel_err\":%.17g"
                      ",\"tolerance\":%.17g,\"gating\":%s}",
                      f.a, f.b, f.relErr, f.tolerance,
                      f.gating ? "true" : "false");
        out << nums;
    }
    out << "\n]}\n";
    return out.str();
}

} // namespace leaseos::metricsdiff
