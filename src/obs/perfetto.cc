/**
 * @file
 * Chrome trace-event JSON writer.
 *
 * The mapping from TraceRecord to trace events is fixed (see
 * perfetto.hh); everything here is string assembly. Counter tracks are
 * identified by (pid, name) in the trace format, so per-unit/per-bank
 * counters carry the unit in the counter name. Slice tracks use B/E
 * pairs; batches are sequential on one track and every job opens and
 * closes its own track, so slices balance trivially.
 */
#include "obs/perfetto.hh"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

namespace rayflex::obs
{

namespace
{

constexpr int kPidUnits = 1;
constexpr int kPidTimeline = 2;
constexpr int kPidL2 = 3;

/** One JSON trace event, pre-rendered except for ordering. */
struct Emitted
{
    int pid = 0;
    uint64_t tid = 0;
    uint64_t ts = 0;
    size_t seq = 0; ///< emission order: the stable tie-break
    std::string json;
};

std::string
instant(int pid, uint64_t tid, uint64_t ts, const char *name,
        const char *ka, uint64_t a, const char *kb, uint64_t b)
{
    std::string s = "{\"ph\":\"i\",\"s\":\"t\",\"pid\":";
    s += std::to_string(pid);
    s += ",\"tid\":" + std::to_string(tid);
    s += ",\"ts\":" + std::to_string(ts);
    s += ",\"name\":\"";
    s += name;
    s += "\",\"args\":{\"";
    s += ka;
    s += "\":" + std::to_string(a) + ",\"";
    s += kb;
    s += "\":" + std::to_string(b) + "}}";
    return s;
}

std::string
counter(int pid, uint64_t tid, uint64_t ts, const std::string &name,
        const char *key, uint64_t value)
{
    std::string s = "{\"ph\":\"C\",\"pid\":" + std::to_string(pid);
    s += ",\"tid\":" + std::to_string(tid);
    s += ",\"ts\":" + std::to_string(ts);
    s += ",\"name\":\"" + name + "\",\"args\":{\"";
    s += key;
    s += "\":" + std::to_string(value) + "}}";
    return s;
}

std::string
slice(char ph, int pid, uint64_t tid, uint64_t ts,
      const std::string &name)
{
    std::string s = "{\"ph\":\"";
    s += ph;
    s += "\",\"pid\":" + std::to_string(pid);
    s += ",\"tid\":" + std::to_string(tid);
    s += ",\"ts\":" + std::to_string(ts);
    s += ",\"name\":\"" + name + "\"}";
    return s;
}

std::string
metadata(int pid, uint64_t tid, bool thread, const std::string &name)
{
    std::string s = "{\"ph\":\"M\",\"pid\":" + std::to_string(pid);
    s += ",\"tid\":" + std::to_string(tid);
    s += ",\"name\":\"";
    s += thread ? "thread_name" : "process_name";
    s += "\",\"args\":{\"name\":\"" + name + "\"}}";
    return s;
}

} // namespace

void
writeChromeTrace(std::ostream &os,
                 const std::vector<TraceRecord> &events)
{
    std::vector<Emitted> out;
    out.reserve(events.size() + 8);
    // Track discovery for the metadata header: (pid, tid) -> name.
    std::map<std::pair<int, uint64_t>, std::string> threads;

    auto unitTrack = [&](uint32_t unit) {
        threads.try_emplace({kPidUnits, unit},
                            "unit " + std::to_string(unit));
        return uint64_t(unit);
    };
    auto bankTrack = [&](uint32_t bank) {
        threads.try_emplace({kPidL2, bank},
                            "bank " + std::to_string(bank));
        return uint64_t(bank);
    };

    size_t seq = 0;
    for (const TraceRecord &r : events) {
        Emitted e;
        e.seq = seq++;
        e.ts = r.cycle;
        switch (r.event) {
        case TraceEvent::FetchIssue:
        case TraceEvent::FetchFill:
        case TraceEvent::MshrAlloc:
        case TraceEvent::MshrMerge: {
            static const char *const names[] = {
                "fetch_issue", "fetch_fill", "mshr_alloc", "mshr_merge"};
            e.pid = kPidUnits;
            e.tid = unitTrack(r.unit);
            e.json = instant(kPidUnits, e.tid, e.ts,
                             names[size_t(r.event)], "addr", r.a, "slot",
                             r.b);
            break;
        }
        case TraceEvent::MshrRefusals:
        case TraceEvent::MshrResidency:
        case TraceEvent::PacketOccupancy: {
            const auto [name, key] =
                r.event == TraceEvent::MshrRefusals
                    ? std::pair{"mshr_refusals", "refused"}
                : r.event == TraceEvent::MshrResidency
                    ? std::pair{"mshr_residency", "entries"}
                    : std::pair{"packet_occupancy", "lanes"};
            e.pid = kPidUnits;
            e.tid = unitTrack(r.unit);
            e.json = counter(kPidUnits, e.tid, e.ts,
                             name + ("[u" + std::to_string(r.unit) + "]"),
                             key, r.a);
            break;
        }
        case TraceEvent::PacketForm:
        case TraceEvent::PacketCompact:
        case TraceEvent::PacketRetire: {
            static const char *const names[] = {"packet_form",
                                                "packet_compact",
                                                "packet_retire"};
            const size_t k =
                size_t(r.event) - size_t(TraceEvent::PacketForm);
            e.pid = kPidUnits;
            e.tid = unitTrack(r.unit);
            e.json =
                instant(kPidUnits, e.tid, e.ts, names[k], "slot", r.a,
                        r.event == TraceEvent::PacketForm ? "lanes"
                        : r.event == TraceEvent::PacketRetire
                            ? "rays"
                            : "into",
                        r.b);
            break;
        }
        case TraceEvent::BankEnqueue:
        case TraceEvent::BankDequeue:
            e.pid = kPidL2;
            e.tid = bankTrack(r.unit);
            e.json = instant(kPidL2, e.tid, e.ts,
                             r.event == TraceEvent::BankEnqueue
                                 ? "bank_enqueue"
                                 : "bank_dequeue",
                             "unit", r.a, "wait", r.b);
            break;
        case TraceEvent::BankQueueDepth:
            e.pid = kPidL2;
            e.tid = bankTrack(r.unit);
            e.json = counter(kPidL2, e.tid, e.ts,
                             "l2_bank_queue[b" +
                                 std::to_string(r.unit) + "]",
                             "depth", r.a);
            break;
        case TraceEvent::BatchStart:
        case TraceEvent::BatchEnd:
            e.pid = kPidTimeline;
            e.tid = 0;
            threads.try_emplace({kPidTimeline, 0}, "batches");
            e.json = slice(r.event == TraceEvent::BatchStart ? 'B' : 'E',
                           kPidTimeline, 0, e.ts,
                           "batch " + std::to_string(r.a));
            break;
        case TraceEvent::JobSubmit:
        case TraceEvent::JobComplete:
            e.pid = kPidTimeline;
            e.tid = 1 + r.a;
            threads.try_emplace({kPidTimeline, 1 + r.a},
                                "job " + std::to_string(r.a));
            e.json = slice(r.event == TraceEvent::JobSubmit ? 'B' : 'E',
                           kPidTimeline, 1 + r.a, e.ts,
                           "job " + std::to_string(r.a));
            break;
        }
        out.push_back(std::move(e));
    }

    // Per-track monotone timestamps, with emission order as the stable
    // tie-break — the determinism key the validator checks.
    std::stable_sort(out.begin(), out.end(),
                     [](const Emitted &x, const Emitted &y) {
                         if (x.pid != y.pid)
                             return x.pid < y.pid;
                         if (x.tid != y.tid)
                             return x.tid < y.tid;
                         if (x.ts != y.ts)
                             return x.ts < y.ts;
                         return x.seq < y.seq;
                     });

    os << "{\"traceEvents\":[\n";
    bool first = true;
    auto emitLine = [&](const std::string &json) {
        if (!first)
            os << ",\n";
        first = false;
        os << json;
    };
    emitLine(metadata(kPidUnits, 0, false, "rt units"));
    emitLine(metadata(kPidTimeline, 0, false, "timeline"));
    emitLine(metadata(kPidL2, 0, false, "shared L2"));
    for (const auto &[key, name] : threads)
        emitLine(metadata(key.first, key.second, true, name));
    for (const Emitted &e : out)
        emitLine(e.json);
    os << "\n]}\n";
}

} // namespace rayflex::obs
