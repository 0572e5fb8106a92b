#include "harness/result_sink.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "harness/figure.h"
#include "harness/table.h"

namespace leaseos::harness {

std::string
ResultSink::Value::toText() const
{
    switch (kind) {
      case Kind::Text: return text;
      case Kind::Number: return TextTable::fmt(number, precision);
      case Kind::Integer: return std::to_string(integer);
    }
    return {};
}

std::string
ResultSink::Value::toJson() const
{
    switch (kind) {
      case Kind::Text: return "\"" + jsonEscape(text) + "\"";
      case Kind::Number:
        if (!std::isfinite(number)) return "null";
        return TextTable::fmt(number, precision);
      case Kind::Integer: return std::to_string(integer);
    }
    return "null";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char c : s) {
        if (c == '"') out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
csvOutputDir()
{
    const char *dir = std::getenv("LEASEOS_OUT");
    return dir ? std::string(dir) : std::string();
}

std::string
benchArtifactPath(const std::string &benchName)
{
    std::string file = "BENCH_" + benchName + ".json";
    std::string dir = csvOutputDir();
    return dir.empty() ? file : dir + "/" + file;
}

bool
maybeExportSeriesCsv(const std::string &name,
                     const std::vector<const sim::TimeSeries *> &series)
{
    std::string dir = csvOutputDir();
    if (dir.empty()) return false;
    std::ofstream out(dir + "/" + name + ".csv");
    if (!out) return false;

    out << "time_s";
    for (const auto *s : series)
        out << "," << csvEscape(s->name().empty() ? "value" : s->name());
    out << "\n";

    // Union of timestamps; blank cells where a series has no sample.
    std::map<std::int64_t, std::vector<std::string>> rows;
    for (std::size_t i = 0; i < series.size(); ++i) {
        for (const auto &p : series[i]->points()) {
            auto &row = rows[p.t.nanos()];
            row.resize(series.size());
            row[i] = std::to_string(p.value);
        }
    }
    for (auto &[ns, row] : rows) {
        row.resize(series.size());
        out << static_cast<double>(ns) / 1e9;
        for (const auto &cell : row) out << "," << cell;
        out << "\n";
    }
    return true;
}

bool
maybeExportSeriesCsv(const std::string &name, const sim::TimeSeries &series)
{
    return maybeExportSeriesCsv(
        name, std::vector<const sim::TimeSeries *>{&series});
}

// ---- TextTableSink ------------------------------------------------------

TextTableSink::TextTableSink(std::ostream &out) : out_(out) {}

TextTableSink::TextTableSink() : out_(std::cout) {}

void
TextTableSink::begin(const std::string &benchId, const std::string &caption)
{
    header_ = figureHeader(benchId, caption);
}

void
TextTableSink::addRow(const Row &row)
{
    if (headers_.empty())
        for (const auto &[key, value] : row) headers_.push_back(key);
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const auto &[key, value] : row) cells.push_back(value.toText());
    rows_.emplace_back(false, std::move(cells));
}

void
TextTableSink::addSeparator()
{
    rows_.emplace_back(true, std::vector<std::string>{});
}

void
TextTableSink::finish()
{
    TextTable table(headers_);
    for (auto &[separator, cells] : rows_) {
        if (separator)
            table.addSeparator();
        else
            table.addRow(cells);
    }
    out_ << header_ << table.toString();
}

// ---- JsonSink -----------------------------------------------------------

JsonSink::JsonSink(std::string path) : path_(std::move(path)) {}

void
JsonSink::begin(const std::string &benchId, const std::string &caption)
{
    benchId_ = benchId;
    caption_ = caption;
}

void
JsonSink::addRow(const Row &row)
{
    rows_.push_back(row);
}

std::string
JsonSink::document() const
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"bench\": \"" << jsonEscape(benchId_) << "\",\n";
    os << "  \"caption\": \"" << jsonEscape(caption_) << "\",\n";
    os << "  \"rows\": [\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        os << "    {";
        const Row &row = rows_[r];
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i) os << ", ";
            os << "\"" << jsonEscape(row[i].first)
               << "\": " << row[i].second.toJson();
        }
        os << "}" << (r + 1 < rows_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

void
JsonSink::finish()
{
    if (path_.empty()) return;
    std::ofstream out(path_);
    if (!out) {
        std::cerr << "[result_sink] cannot write " << path_ << "\n";
        return;
    }
    out << document();
    std::cerr << "[result_sink] wrote " << path_ << "\n";
}

} // namespace leaseos::harness
