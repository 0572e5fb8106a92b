#ifndef LEASEOS_OBS_TRACE_EXPORT_H
#define LEASEOS_OBS_TRACE_EXPORT_H

/**
 * @file
 * Post-run exporters for the TraceBuffer ring (DESIGN.md §9).
 *
 * Two formats:
 *  - JSON-lines: one self-describing object per line, in emission order —
 *    the machine-diffable format the round-trip tests parse;
 *  - Chrome trace_event JSON: a `{"traceEvents": [...]}` document of
 *    instant events that loads directly in Perfetto / about:tracing
 *    (sim-time mapped to ts microseconds, uid mapped to tid).
 *
 * writeTraceFile() picks the format from the extension: `.jsonl` emits
 * JSON-lines, anything else the Chrome document.
 */

#include <iosfwd>
#include <string>

#include "obs/trace.h"

namespace leaseos::obs {

/**
 * One event as a single-line JSON object (no trailing newline) — the
 * record format shared by the JSON-lines exporter and the flight
 * recorder, so tools/tracereplay parses both from one schema.
 */
void writeEventJson(const TraceEvent &event, std::ostream &out);

/** One JSON object per retained event, oldest first. */
void writeJsonLines(const TraceBuffer &buffer, std::ostream &out);

/** Chrome trace_event document (open in Perfetto / about:tracing). */
void writeChromeTrace(const TraceBuffer &buffer, std::ostream &out);

/** Export to @p path, format chosen by extension. False on I/O error. */
bool writeTraceFile(const TraceBuffer &buffer, const std::string &path);

/**
 * JSON string escaping (quotes, backslashes, control characters), shared
 * by the flight recorder and the harness's result sinks.
 */
std::string jsonEscape(const std::string &s);

} // namespace leaseos::obs

#endif // LEASEOS_OBS_TRACE_EXPORT_H
