#include "obs/trace_export.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace leaseos::obs {

void
writeEventJson(const TraceEvent &e, std::ostream &out)
{
    char line[192];
    std::snprintf(line, sizeof line,
                  "{\"t\":%" PRId64 ",\"cat\":\"%s\",\"ev\":\"%s\","
                  "\"uid\":%" PRId32 ",\"lease\":%" PRIu64
                  ",\"payload\":%" PRIu64 "}",
                  e.timeNs,
                  traceCategoryName(static_cast<TraceCategory>(e.category)),
                  traceCodeName(static_cast<TraceCode>(e.code)), e.uid,
                  e.leaseId, e.payload);
    out << line;
}

namespace {

void
writeChromeEvent(const TraceEvent &e, bool first, std::ostream &out)
{
    // Instant events, thread scope; ts is microseconds with nanosecond
    // precision kept in the fraction. uid doubles as the track (tid).
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\","
                  "\"s\":\"t\",\"ts\":%" PRId64 ".%03" PRId64
                  ",\"pid\":1,\"tid\":%" PRId32 ",\"args\":{\"lease\":%" PRIu64
                  ",\"payload\":%" PRIu64 "}}",
                  first ? "" : ",\n",
                  traceCodeName(static_cast<TraceCode>(e.code)),
                  traceCategoryName(static_cast<TraceCategory>(e.category)),
                  e.timeNs / 1000, e.timeNs % 1000, e.uid, e.leaseId,
                  e.payload);
    out << line;
}

} // namespace

void
writeJsonLines(const TraceBuffer &buffer, std::ostream &out)
{
    for (std::size_t i = 0; i < buffer.size(); ++i) {
        writeEventJson(buffer.event(i), out);
        out << '\n';
    }
}

void
writeChromeTrace(const TraceBuffer &buffer, std::ostream &out)
{
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < buffer.size(); ++i)
        writeChromeEvent(buffer.event(i), i == 0, out);
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

bool
writeTraceFile(const TraceBuffer &buffer, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out.good()) return false;
    const bool jsonl =
        path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0;
    if (jsonl)
        writeJsonLines(buffer, out);
    else
        writeChromeTrace(buffer, out);
    out.flush();
    return out.good();
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

} // namespace leaseos::obs
