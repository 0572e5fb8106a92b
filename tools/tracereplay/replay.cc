#include "tracereplay/replay.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "analysis/invariants.h"
#include "lease/lease.h"
#include "support/minijson.h"

namespace leaseos::tracereplay {

namespace {

using lease::LeaseState;

/** Replay-tracked lease lifecycle. */
struct TrackedLease {
    LeaseState state = LeaseState::Active;
    bool inferred = false; ///< first seen mid-life (ring wrap)
};

bool
parseU64(const std::string &raw, std::uint64_t &out)
{
    if (raw.empty()) return false;
    char *end = nullptr;
    out = std::strtoull(raw.c_str(), &end, 10);
    return end && *end == '\0';
}

bool
parseEventObject(const minijson::Value &obj, ReplayEvent &out,
                 std::string &error)
{
    const minijson::Value *t = obj.find("t");
    const minijson::Value *cat = obj.find("cat");
    const minijson::Value *ev = obj.find("ev");
    const minijson::Value *uid = obj.find("uid");
    const minijson::Value *leaseId = obj.find("lease");
    const minijson::Value *payload = obj.find("payload");
    if (!t || !t->isNumber() || !cat || !cat->isString() || !ev ||
        !ev->isString() || !uid || !uid->isNumber() || !leaseId ||
        !leaseId->isNumber() || !payload || !payload->isNumber()) {
        error = "event object missing a required field "
                "(t/cat/ev/uid/lease/payload)";
        return false;
    }
    out.timeNs = static_cast<std::int64_t>(t->number);
    out.cat = cat->raw;
    out.ev = ev->raw;
    out.uid = static_cast<std::int32_t>(uid->number);
    // lease and payload are full 64-bit fields (payload may be a bit-cast
    // double): parse the raw token, not the 53-bit double.
    if (!parseU64(leaseId->raw, out.leaseId)) {
        error = "lease id is not a decimal integer: " + leaseId->raw;
        return false;
    }
    if (!parseU64(payload->raw, out.payload)) {
        error = "payload is not a decimal integer: " + payload->raw;
        return false;
    }
    out.payloadRaw = payload->raw;
    return true;
}

Trace
loadJsonLines(std::istream &in)
{
    Trace trace;
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty()) continue;
        minijson::ParseResult parsed = minijson::parse(line);
        if (!parsed.ok()) {
            std::ostringstream err;
            err << "line " << lineNo << ": " << parsed.error;
            trace.error = err.str();
            return trace;
        }
        ReplayEvent event;
        std::string fieldError;
        if (!parseEventObject(parsed.value, event, fieldError)) {
            std::ostringstream err;
            err << "line " << lineNo << ": " << fieldError;
            trace.error = err.str();
            return trace;
        }
        trace.events.push_back(std::move(event));
    }
    return trace;
}

Trace
loadFlightRecord(const std::string &text)
{
    Trace trace;
    trace.flightRecord = true;
    minijson::ParseResult parsed = minijson::parse(text);
    if (!parsed.ok()) {
        std::ostringstream err;
        err << "flight record parse error (line " << parsed.line
            << "): " << parsed.error;
        trace.error = err.str();
        return trace;
    }
    if (const minijson::Value *check = parsed.value.find("check"))
        trace.check = check->asString();
    if (const minijson::Value *detail = parsed.value.find("detail"))
        trace.detail = detail->asString();
    const minijson::Value *traceObj = parsed.value.find("trace");
    const minijson::Value *events =
        traceObj ? traceObj->find("events") : nullptr;
    if (!events || !events->isArray()) {
        trace.error = "flight record has no trace.events array";
        return trace;
    }
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        ReplayEvent event;
        std::string fieldError;
        if (!parseEventObject(events->array[i], event, fieldError)) {
            std::ostringstream err;
            err << "trace.events[" << i << "]: " << fieldError;
            trace.error = err.str();
            return trace;
        }
        trace.events.push_back(std::move(event));
    }
    return trace;
}

/** Target state of a transition event name, or nullopt for non-transitions. */
bool
transitionTarget(const std::string &ev, LeaseState &out)
{
    if (ev == "to_active") out = LeaseState::Active;
    else if (ev == "to_inactive") out = LeaseState::Inactive;
    else if (ev == "to_deferred") out = LeaseState::Deferred;
    else if (ev == "to_dead") out = LeaseState::Dead;
    else return false;
    return true;
}

const char *
stateName(LeaseState s)
{
    return lease::leaseStateName(s);
}

} // namespace

std::string
ReplayEvent::toString() const
{
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "t=%" PRId64 "ns cat=%s ev=%s uid=%" PRId32
                  " lease=%" PRIu64 " payload=%s",
                  timeNs, cat.c_str(), ev.c_str(), uid, leaseId,
                  payloadRaw.c_str());
    return buf;
}

std::string
ReplayIssue::toString() const
{
    std::ostringstream out;
    out << "event #" << eventIndex << " [" << check << "]: " << detail;
    return out.str();
}

Trace
loadTrace(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) {
        Trace trace;
        trace.error = "cannot open " + path;
        return trace;
    }
    // A flight record is a single JSON document starting with
    // {"flightrec":1,...}; a trace export is JSON-lines of events.
    std::string head(16, '\0');
    in.read(head.data(), static_cast<std::streamsize>(head.size()));
    head.resize(static_cast<std::size_t>(in.gcount()));
    in.clear();
    in.seekg(0);
    if (head.find("\"flightrec\"") != std::string::npos) {
        std::ostringstream whole;
        whole << in.rdbuf();
        return loadFlightRecord(whole.str());
    }
    return loadJsonLines(in);
}

ReplayReport
validate(const Trace &trace)
{
    ReplayReport report;
    report.eventCount = trace.events.size();

    std::map<std::uint64_t, TrackedLease> leases;
    std::int64_t lastTimeNs = INT64_MIN;
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
        const ReplayEvent &e = trace.events[i];

        // Queue schedule/cancel events are deadline-stamped (`t` is the
        // slot the entry targets, which can be far ahead of — or, for a
        // cancel, behind — the emission clock), so they neither advance
        // nor check the replay clock. Every other category stamps the
        // emission-time sim clock.
        const bool deadlineStamped =
            e.cat == "queue" && (e.ev == "schedule" || e.ev == "cancel");
        if (!deadlineStamped) {
            if (e.timeNs < lastTimeNs) {
                std::ostringstream detail;
                detail << "sim-time ran backwards: " << e.timeNs
                       << "ns after " << lastTimeNs << "ns";
                report.issues.push_back(
                    {i, "time-monotonicity", detail.str()});
            }
            lastTimeNs = e.timeNs;
        }

        if (e.cat == "lease") {
            if (e.ev == "lease_created") {
                auto it = leases.find(e.leaseId);
                if (it != leases.end() &&
                    it->second.state != LeaseState::Dead) {
                    std::ostringstream detail;
                    detail << "lease " << e.leaseId << " re-created while "
                           << stateName(it->second.state)
                           << " (ids are never reused)";
                    report.issues.push_back(
                        {i, "duplicate-create", detail.str()});
                }
                leases[e.leaseId] = TrackedLease{LeaseState::Active, false};
                continue;
            }
            LeaseState to;
            if (!transitionTarget(e.ev, to)) continue;
            ++report.transitionsChecked;
            // Payload carries the emitter's from-state.
            if (e.payload > 3) {
                std::ostringstream detail;
                detail << "transition payload " << e.payload
                       << " is not a LeaseState";
                report.issues.push_back(
                    {i, "trace-payload", detail.str()});
                continue;
            }
            LeaseState claimedFrom = static_cast<LeaseState>(e.payload);
            auto it = leases.find(e.leaseId);
            LeaseState from = claimedFrom;
            if (it == leases.end()) {
                // Born before the ring's oldest event: adopt the
                // emitter's from-state (expected after ring wrap).
                leases[e.leaseId] = TrackedLease{claimedFrom, true};
                it = leases.find(e.leaseId);
                ++report.inferredLeases;
            } else if (it->second.state != claimedFrom) {
                std::ostringstream detail;
                detail << "emitter claims transition from "
                       << stateName(claimedFrom) << " but replay tracked "
                       << stateName(it->second.state);
                report.issues.push_back(
                    {i, "trace-payload", detail.str()});
                from = it->second.state;
            }
            if (!analysis::InvariantOracle::legalTransition(from, to)) {
                std::ostringstream detail;
                detail << "illegal transition " << stateName(from)
                       << " -> " << stateName(to)
                       << " (not in the Fig. 5 transition relation)";
                report.issues.push_back(
                    {i, "state-machine", detail.str()});
            }
            it->second.state = to;
            continue;
        }

        auto tracked = leases.find(e.leaseId);
        const bool known = tracked != leases.end();
        auto expectState = [&](LeaseState expected, const char *what) {
            if (!known || tracked->second.state == expected) return;
            std::ostringstream detail;
            detail << what << " on lease " << e.leaseId << " while it is "
                   << stateName(tracked->second.state) << " (expected "
                   << stateName(expected) << ")";
            report.issues.push_back({i, "proxy-decision", detail.str()});
        };
        if (e.cat == "proxy") {
            if (e.ev == "grant") {
                expectState(LeaseState::Active, "proxy grant");
            } else if (e.ev == "defer") {
                expectState(LeaseState::Deferred, "proxy defer");
            } else if (e.ev == "deny") {
                // check() denies exactly when the lease is not ACTIVE.
                if (known && tracked->second.state == LeaseState::Active) {
                    std::ostringstream detail;
                    detail << "proxy deny on lease " << e.leaseId
                           << " while replay tracks it ACTIVE";
                    report.issues.push_back(
                        {i, "proxy-decision", detail.str()});
                }
            }
        } else if (e.cat == "classifier" || e.cat == "utility") {
            // Term-end work (stats collection, classification, utility
            // charge) runs before the state changes, i.e. on ACTIVE.
            expectState(LeaseState::Active,
                        e.cat == "utility" ? "utility charge"
                                           : "classifier verdict");
        }
        // Queue/Power events are sampled firehoses: only the
        // monotonicity check above applies.
    }
    report.leaseCount = leases.size();
    return report;
}

DiffResult
diffTraces(const Trace &a, const Trace &b)
{
    DiffResult result;
    const std::size_t n = std::min(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < n; ++i) {
        const ReplayEvent &ea = a.events[i];
        const ReplayEvent &eb = b.events[i];
        const char *field = nullptr;
        if (ea.timeNs != eb.timeNs) field = "t";
        else if (ea.cat != eb.cat) field = "cat";
        else if (ea.ev != eb.ev) field = "ev";
        else if (ea.uid != eb.uid) field = "uid";
        else if (ea.leaseId != eb.leaseId) field = "lease";
        else if (ea.payloadRaw != eb.payloadRaw) field = "payload";
        if (field) {
            result.diverged = true;
            result.index = i;
            result.field = field;
            result.a = ea.toString();
            result.b = eb.toString();
            return result;
        }
    }
    if (a.events.size() != b.events.size()) {
        result.diverged = true;
        result.index = n;
        result.field = "length";
        result.a = n < a.events.size() ? a.events[n].toString() : "<absent>";
        result.b = n < b.events.size() ? b.events[n].toString() : "<absent>";
    }
    return result;
}

} // namespace leaseos::tracereplay
