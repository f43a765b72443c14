/**
 * @file
 * Pipeline assembly for the RayFlex datapath.
 */
#include "core/datapath.hh"

#include <stdexcept>

#include "pipeline/drivers.hh"

namespace rayflex::core
{

using pipeline::SkidBuffer;

RayFlexDatapath::RayFlexDatapath(const DatapathConfig &cfg) : cfg_(cfg)
{
    // Stage 1: IO -> SRFDS format conversion. Also the observation point
    // for the activity trace (one count per accepted beat) and the
    // opcode legality check: the baseline hardware simply has no datapath
    // for the distance opcodes.
    stage1_ = std::make_unique<SkidBuffer<DatapathInput, Srfds>>(
        "stage1-fmt-in", [this](const DatapathInput &in) {
            if (!supports(in.op)) {
                throw std::invalid_argument(
                    std::string("opcode ") + opcodeName(in.op) +
                    " not supported by " + cfg_.name() + " datapath");
            }
            ++activity_.beats[static_cast<size_t>(in.op)];
            return stages::stage1(in, cfg_.box_width);
        });

    // Stages 2..10: SRFDS -> SRFDS. Each stage register gets its own
    // copy of the bundle, which the in-place stage logic then updates;
    // blank combinations leave fields untouched, exactly like the blank
    // cells of Fig. 4c.
    auto mid = [this](const char *name, auto fn) {
        mids_.push_back(
            std::make_unique<MidBuffer>(name, [fn](const Srfds &in) {
                Srfds s = in;
                fn(s);
                return s;
            }));
    };
    mid("stage2-add", stages::stage2);
    mid("stage3-mul", stages::stage3);
    mid("stage4-cmp", stages::stage4);
    mid("stage5-mul", stages::stage5);
    mid("stage6-add", stages::stage6);
    mid("stage7-mul", stages::stage7);
    mid("stage8-add", stages::stage8);
    mid("stage9-add", [this](Srfds &s) { stages::stage9(s, acc_); });
    mid("stage10-sort", [this](Srfds &s) { stages::stage10(s, acc_); });

    // Stage 11: SRFDS -> IO format conversion.
    stage11_ = std::make_unique<SkidBuffer<Srfds, DatapathOutput>>(
        "stage11-fmt-out",
        [](const Srfds &s) { return stages::stage11(s); });

    // Chain the handshakes: each stage drives the next stage's input
    // port.
    stage1_->bindOut(&mids_[0]->in());
    for (size_t i = 0; i + 1 < mids_.size(); ++i)
        mids_[i]->bindOut(&mids_[i + 1]->in());
    mids_.back()->bindOut(&stage11_->in());
}

void
RayFlexDatapath::registerWith(pipeline::Simulator &sim)
{
    sim.add(stage1_.get());
    for (auto &m : mids_)
        sim.add(m.get());
    sim.add(stage11_.get());
}

std::vector<const pipeline::SkidBufferBase *>
RayFlexDatapath::stages() const
{
    std::vector<const pipeline::SkidBufferBase *> v;
    v.push_back(stage1_.get());
    for (const auto &m : mids_)
        v.push_back(m.get());
    v.push_back(stage11_.get());
    return v;
}

std::vector<DatapathOutput>
runBatch(RayFlexDatapath &dp, const std::vector<DatapathInput> &in,
         uint64_t *cycles_out)
{
    pipeline::Simulator sim;
    pipeline::Source<DatapathInput> src("src", &dp.in());
    pipeline::Sink<DatapathOutput> sink("sink", &dp.out());
    dp.registerWith(sim);
    sim.add(&src);
    sim.add(&sink);
    src.pushAll(in);

    const uint64_t limit = in.size() + 16 * kPipelineLatency + 64;
    while (sink.count() < in.size() && sim.cycle() < limit) {
        sim.tick();
        dp.countCycle();
    }
    if (sink.count() < in.size())
        throw std::runtime_error("runBatch: pipeline did not drain");
    if (cycles_out)
        *cycles_out = sim.cycle();
    return sink.received();
}

} // namespace rayflex::core
