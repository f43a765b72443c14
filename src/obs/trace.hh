/**
 * @file
 * Deterministic event tracing: the TraceSink seam.
 *
 * Mirrors the MemoryModel pluggable-backend idiom: producers hold a
 * nullable TraceSink pointer and emit nothing when it is null — the
 * disabled path is a single pointer test, so tracing off costs nothing
 * and (pinned by tests/test_obs.cc) every counter and hit record is
 * bit-identical with the sink attached or detached.
 *
 * Events are cycle-stamped on the producer's own clock (unit-local
 * cycles inside a batch; the engine and streaming tiers rebase batch
 * events onto their sequential simulated timelines when concatenating)
 * and appended in simulation order. Batches are simulated
 * single-threaded (a chip's units tick in deterministic lock-step
 * registration order), batch decomposition depends only on the ray
 * count and batch size, and per-batch traces concatenate in batch
 * order — so a run's full trace is bit-identical at any worker count,
 * exactly like hits and stats. TraceRecord is a plain comparable
 * value, so the bit-identity is pinned with operator== on the vector.
 *
 * Field conventions (`a`, `b` are event-specific operands):
 *
 *   FetchIssue / FetchFill    unit = RT unit   a = address   b = slot
 *   MshrAlloc                 unit = RT unit   a = address   b = residency
 *   MshrMerge                 unit = RT unit   a = address   b = slot
 *   MshrRefusals (counter)    unit = RT unit   a = fetches the full MSHR
 *                                                  file refused that cycle
 *   MshrResidency (counter)   unit = RT unit   a = entries in flight
 *   PacketForm                unit = RT unit   a = slot      b = lanes
 *   PacketCompact             unit = RT unit   a = donor     b = recipient
 *   PacketRetire              unit = RT unit   a = slot      b = rays
 *   PacketOccupancy (counter) unit = RT unit   a = live lanes, all slots
 *   BankEnqueue / BankDequeue unit = L2 bank   a = requester b = wait
 *   BankQueueDepth (counter)  unit = L2 bank   a = queued requests
 *   BatchStart / BatchEnd     unit = 0         a = batch     b = rays/jobs
 *   JobSubmit / JobComplete   unit = 0         a = job id    b = rays/latency
 */
#ifndef RAYFLEX_OBS_TRACE_HH
#define RAYFLEX_OBS_TRACE_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace rayflex::obs
{

/** What happened. Grouped by producer; see the field conventions in
 *  the file comment for the meaning of `a` and `b` per event. */
enum class TraceEvent : uint8_t {
    // RtUnit memory path
    FetchIssue,
    FetchFill,
    MshrAlloc,
    MshrMerge,
    MshrRefusals, ///< counter sample: fetches refused this cycle
    MshrResidency, ///< counter sample: MSHR entries in flight
    // Packet scheduler
    PacketForm,
    PacketCompact,
    PacketRetire,
    PacketOccupancy, ///< counter sample: live lanes across all slots
    // SharedL2 banks
    BankEnqueue,
    BankDequeue,
    BankQueueDepth, ///< counter sample: requests queued at the bank
    // Engine / streaming timeline
    BatchStart,
    BatchEnd,
    JobSubmit,
    JobComplete,
};

/** One cycle-stamped event. A plain comparable value: trace equality
 *  (and therefore the worker-count bit-identity contract) is
 *  vector-of-records equality. */
struct TraceRecord
{
    uint64_t cycle = 0; ///< producer-local simulated cycle
    uint32_t unit = 0;  ///< RT unit / L2 bank / 0 (timeline events)
    TraceEvent event = TraceEvent::FetchIssue;
    uint64_t a = 0; ///< event-specific (see file comment)
    uint64_t b = 0; ///< event-specific (see file comment)

    friend bool operator==(const TraceRecord &,
                           const TraceRecord &) = default;
};

/** The seam. Producers (RtUnit, SharedL2, the engine and streaming
 *  tiers) hold a nullable pointer to one of these; null means tracing
 *  is disabled and the producer skips emission entirely. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void record(const TraceRecord &r) = 0;
};

/** The collecting sink: appends records in emission order. One
 *  instance per batch keeps emission single-threaded (a chip's units
 *  share the batch's sink; they tick in lock-step on one thread). */
class VectorTraceSink final : public TraceSink
{
  public:
    void record(const TraceRecord &r) override { events_.push_back(r); }

    /** Move the collected records out (end of a batch). */
    std::vector<TraceRecord>
    take()
    {
        return std::exchange(events_, {});
    }

  private:
    std::vector<TraceRecord> events_;
};

} // namespace rayflex::obs

#endif // RAYFLEX_OBS_TRACE_HH
