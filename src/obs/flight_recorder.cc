#include "obs/flight_recorder.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "obs/metric_registry.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace leaseos::obs {

namespace {

thread_local FlightRecorder *t_current = nullptr;
thread_local bool t_inDump = false;

/** RAII for the in-dump flag so early returns can't leave it stuck. */
struct DumpScope {
    DumpScope() { t_inDump = true; }
    ~DumpScope() { t_inDump = false; }
};

std::string
sanitizeLabel(std::string label)
{
    if (label.empty()) return "run";
    for (char &c : label) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
        if (!ok) c = '_';
    }
    return label;
}

void
writeJsonString(const std::string &s, std::ostream &out)
{
    out << '"';
    for (char c : s) {
        switch (c) {
        case '"': out << "\\\""; break;
        case '\\': out << "\\\\"; break;
        case '\n': out << "\\n"; break;
        case '\r': out << "\\r"; break;
        case '\t': out << "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out << buf;
            } else {
                out << c;
            }
        }
    }
    out << '"';
}

void
writeNumber(double v, std::ostream &out)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out << buf;
}

} // namespace

FlightRecorder::FlightRecorder(std::string dir, std::string label)
    : dir_(std::move(dir)), label_(sanitizeLabel(std::move(label)))
{
}

FlightRecorder::~FlightRecorder()
{
    if (installed_) uninstall();
}

bool
FlightRecorder::inDump() noexcept
{
    return t_inDump;
}

std::string
FlightRecorder::dump(const FlightRecordContext &ctx)
{
    if (t_inDump) return {}; // reentrant: a dump is already being written
    DumpScope scope;

    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) return {};

    char name[160];
    std::snprintf(name, sizeof name, "flightrec-%s-t%" PRId64 "-%" PRIu64
                                     ".json",
                  label_.c_str(), ctx.simTime.nanos(), dumps_ + 1);
    std::string path = dir_ + "/" + name;

    std::ofstream out(path, std::ios::binary);
    if (!out.good()) return {};

    out << "{\"flightrec\":1,\n";
    out << "\"label\":";
    writeJsonString(label_, out);
    out << ",\n\"reason\":";
    writeJsonString(ctx.reason, out);
    out << ",\n\"check\":";
    writeJsonString(ctx.check, out);
    out << ",\n\"detail\":";
    writeJsonString(ctx.detail, out);
    char header[96];
    std::snprintf(header, sizeof header,
                  ",\n\"sim_time_ns\":%" PRId64 ",\n\"lease\":%" PRIu64,
                  ctx.simTime.nanos(), ctx.leaseId);
    out << header;

    // Metrics snapshot: the same names the JSON rollup sinks emit.
    // snapshot() pulls bound-metric callbacks, which is why the in-dump
    // flag must already be set — a callback tripping the oracle here must
    // record, not abort into a second dump.
    out << ",\n\"metrics\":{";
    if (const MetricRegistry *reg = MetricRegistry::current()) {
        bool first = true;
        for (const auto &[metricName, metricValue] : reg->snapshot()) {
            if (!first) out << ',';
            first = false;
            out << "\n";
            writeJsonString(metricName, out);
            out << ':';
            writeNumber(metricValue, out);
        }
    }
    out << "\n}";

    // Trace ring, oldest first, one event per line in the exact
    // JSON-lines schema tools/tracereplay parses.
    out << ",\n\"trace\":{";
    if (const TraceBuffer *trace = TraceBuffer::current()) {
        char counts[96];
        std::snprintf(counts, sizeof counts,
                      "\"emitted\":%" PRIu64 ",\"retained\":%zu"
                      ",\"dropped\":%" PRIu64 ",",
                      trace->emitted(), trace->size(), trace->dropped());
        out << counts << "\"events\":[";
        for (std::size_t i = 0; i < trace->size(); ++i) {
            if (i != 0) out << ',';
            out << '\n';
            writeEventJson(trace->event(i), out);
        }
        out << "\n]";
    } else {
        out << "\"emitted\":0,\"retained\":0,\"dropped\":0,\"events\":[]";
    }
    out << "}}\n";

    out.flush();
    if (!out.good()) return {};
    ++dumps_;
    return path;
}

void
FlightRecorder::install()
{
    previous_ = t_current;
    t_current = this;
    installed_ = true;
}

void
FlightRecorder::uninstall()
{
    t_current = previous_;
    previous_ = nullptr;
    installed_ = false;
}

FlightRecorder *
FlightRecorder::current()
{
    return t_current;
}

} // namespace leaseos::obs
