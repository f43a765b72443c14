/**
 * @file
 * Property tests of the RayFlex Skid Buffer and elastic-pipeline kernel.
 *
 * The properties verified here are the ones the paper's architecture
 * rests on (Section III-C): lossless in-order transfer under arbitrary
 * producer/consumer stall patterns, full throughput when unstalled,
 * fully registered outputs (one cycle of latency per stage), correct
 * back-pressure propagation with no global controller, and exactly-once
 * invocation of the programmer-supplied (possibly stateful) logic. The
 * kernel's Simulator::step is checked to jump the clock only over the
 * cycles in which no component can change state.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "pipeline/component.hh"
#include "pipeline/drivers.hh"
#include "pipeline/skid_buffer.hh"

using namespace rayflex::pipeline;

namespace
{

/** A pattern asserting on cycles where (hash of cycle) mod 100 < pct. */
CyclePattern
randomPattern(uint64_t seed, unsigned pct)
{
    return [seed, pct](uint64_t cycle) {
        uint64_t h = (cycle + seed) * 0x9E3779B97F4A7C15ull;
        return (h >> 33) % 100 < pct;
    };
}

/** Drive `n` ints through a chain of `stages` +1 skid buffers with the
 *  given valid/ready duty cycles; return arrival cycles via out. */
std::vector<int>
runChain(unsigned stages, int n, unsigned valid_pct, unsigned ready_pct,
         uint64_t seed, std::vector<uint64_t> *arrivals = nullptr,
         uint64_t *elapsed = nullptr)
{
    std::vector<std::unique_ptr<SkidBuffer<int, int>>> bufs;
    for (unsigned i = 0; i < stages; ++i) {
        bufs.push_back(std::make_unique<SkidBuffer<int, int>>(
            "s" + std::to_string(i), [](const int &v) { return v + 1; }));
    }
    for (unsigned i = 0; i + 1 < stages; ++i)
        bufs[i]->bindOut(&bufs[i + 1]->in());

    Source<int> src("src", &bufs.front()->in(),
                    valid_pct >= 100 ? alwaysOn()
                                     : randomPattern(seed, valid_pct));
    Sink<int> sink("sink", &bufs.back()->out(),
                   ready_pct >= 100 ? alwaysOn()
                                    : randomPattern(seed ^ 0xABCD,
                                                    ready_pct));
    Simulator sim;
    for (auto &b : bufs)
        sim.add(b.get());
    sim.add(&src);
    sim.add(&sink);

    for (int i = 0; i < n; ++i)
        src.push(i);
    bool done = sim.runUntil([&] { return sink.count() == size_t(n); },
                             100000);
    EXPECT_TRUE(done) << "pipeline did not drain";
    if (arrivals)
        *arrivals = sink.arrivalCycles();
    if (elapsed)
        *elapsed = sim.cycle();
    return sink.received();
}

} // namespace

TEST(SkidBuffer, FullThroughputOneBeatPerCycle)
{
    std::vector<uint64_t> arrivals;
    uint64_t elapsed = 0;
    auto out = runChain(1, 50, 100, 100, 1, &arrivals, &elapsed);
    ASSERT_EQ(out.size(), 50u);
    // After the first arrival, one beat per cycle (II = 1).
    for (size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_EQ(arrivals[i], arrivals[i - 1] + 1);
}

TEST(SkidBuffer, SingleStageLatencyIsOneCycle)
{
    std::vector<uint64_t> arrivals;
    runChain(1, 1, 100, 100, 1, &arrivals);
    // Accepted on cycle 0, output registered, delivered on cycle 1.
    ASSERT_EQ(arrivals.size(), 1u);
    EXPECT_EQ(arrivals[0], 1u);
}

TEST(SkidBuffer, ChainLatencyIsOneCyclePerStage)
{
    for (unsigned stages : {2u, 5u, 11u}) {
        std::vector<uint64_t> arrivals;
        runChain(stages, 1, 100, 100, 7, &arrivals);
        ASSERT_EQ(arrivals.size(), 1u);
        EXPECT_EQ(arrivals[0], stages) << stages << " stages";
    }
}

TEST(SkidBuffer, LogicAppliedOncePerStage)
{
    // Each stage increments; 11 stages => +11.
    auto out = runChain(11, 20, 100, 100, 3);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(out[size_t(i)], i + 11);
}

struct StallMatrix
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(StallMatrix, LosslessInOrderUnderRandomStalls)
{
    auto [valid_pct, ready_pct] = GetParam();
    for (uint64_t seed : {11ull, 22ull, 33ull}) {
        auto out = runChain(4, 200, valid_pct, ready_pct, seed);
        ASSERT_EQ(out.size(), 200u);
        for (int i = 0; i < 200; ++i)
            ASSERT_EQ(out[size_t(i)], i + 4)
                << "valid%=" << valid_pct << " ready%=" << ready_pct
                << " seed=" << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, StallMatrix,
    ::testing::Values(std::make_tuple(100u, 100u),
                      std::make_tuple(100u, 50u),
                      std::make_tuple(50u, 100u),
                      std::make_tuple(50u, 50u),
                      std::make_tuple(90u, 10u),
                      std::make_tuple(10u, 90u),
                      std::make_tuple(25u, 25u)));

TEST(SkidBuffer, ThroughputLimitedBySlowerSide)
{
    // With ready at ~50%, 200 beats need about 400 cycles; the elastic
    // chain must not degrade below the bottleneck rate.
    uint64_t elapsed = 0;
    runChain(3, 200, 100, 50, 5, nullptr, &elapsed);
    EXPECT_LT(elapsed, 520u); // 200/0.5 plus latency and pattern noise
}

TEST(SkidBuffer, BackPressureBoundsOccupancy)
{
    // A stalled consumer fills main + skid (occupancy 2) and the
    // registered ready then drops: no beat is ever lost.
    SkidBuffer<int, int> buf("b", [](const int &v) { return v; });
    Source<int> src("src", &buf.in());
    Sink<int> sink("sink", &buf.out(),
                   [](uint64_t) { return false; }); // never ready
    Simulator sim;
    sim.add(&buf);
    sim.add(&src);
    sim.add(&sink);
    for (int i = 0; i < 10; ++i)
        src.push(i);
    sim.run(20);
    EXPECT_EQ(buf.occupancy(), 2u);
    EXPECT_EQ(src.sent(), 2u); // exactly main + skid accepted
    EXPECT_EQ(sink.count(), 0u);
}

TEST(SkidBuffer, DrainsAfterBackPressureReleases)
{
    SkidBuffer<int, int> buf("b", [](const int &v) { return v * 10; });
    Source<int> src("src", &buf.in());
    // Ready only after cycle 30.
    Sink<int> sink("sink", &buf.out(),
                   [](uint64_t c) { return c >= 30; });
    Simulator sim;
    sim.add(&buf);
    sim.add(&src);
    sim.add(&sink);
    for (int i = 0; i < 5; ++i)
        src.push(i);
    sim.runUntil([&] { return sink.count() == 5; }, 100);
    ASSERT_EQ(sink.count(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(sink.received()[size_t(i)], i * 10);
}

TEST(SkidBuffer, StatefulLogicSeesEachBeatExactlyOnce)
{
    // An accumulator in the programmer-supplied logic (the extended
    // pipeline's pattern) must observe each beat exactly once even
    // under heavy stalls.
    int sum = 0;
    SkidBuffer<int, int> buf("acc", [&sum](const int &v) {
        sum += v;
        return sum;
    });
    Source<int> src("src", &buf.in(), randomPattern(1, 40));
    Sink<int> sink("sink", &buf.out(), randomPattern(2, 40));
    Simulator sim;
    sim.add(&buf);
    sim.add(&src);
    sim.add(&sink);
    for (int i = 1; i <= 50; ++i)
        src.push(i);
    ASSERT_TRUE(sim.runUntil([&] { return sink.count() == 50; }, 10000));
    EXPECT_EQ(sum, 50 * 51 / 2);
    // Running prefix sums arrive in order.
    int expect = 0;
    for (int i = 1; i <= 50; ++i) {
        expect += i;
        EXPECT_EQ(sink.received()[size_t(i - 1)], expect);
    }
}

TEST(SkidBuffer, StatsAccounting)
{
    SkidBuffer<int, int> buf("b", [](const int &v) { return v; });
    Source<int> src("src", &buf.in());
    Sink<int> sink("sink", &buf.out());
    Simulator sim;
    sim.add(&buf);
    sim.add(&src);
    sim.add(&sink);
    for (int i = 0; i < 30; ++i)
        src.push(i);
    sim.runUntil([&] { return sink.count() == 30; }, 1000);
    EXPECT_EQ(buf.stats().accepted, 30u);
    EXPECT_EQ(buf.stats().delivered, 30u);
    EXPECT_EQ(buf.stats().stall_cycles, 0u);
}

TEST(SkidBuffer, TypeParameterization)
{
    // In -> Out type change inside a stage, as stages 1 and 11 do.
    SkidBuffer<int, std::string> buf(
        "fmt", [](const int &v) { return std::to_string(v); });
    Source<int> src("src", &buf.in());
    Sink<std::string> sink("sink", &buf.out());
    Simulator sim;
    sim.add(&buf);
    sim.add(&src);
    sim.add(&sink);
    src.push(42);
    ASSERT_TRUE(sim.runUntil([&] { return sink.count() == 1; }, 10));
    EXPECT_EQ(sink.received()[0], "42");
}

namespace
{

/** A component that changes state only on the cycles in `events` and
 *  opts in to skipping: it counts the cycles it evaluates and the
 *  cycles it is charged, evaluated or skipped. */
class EventTimer : public Component
{
  public:
    explicit EventTimer(std::vector<uint64_t> events)
        : Component("timer"), events_(std::move(events))
    {
    }

    void publish(uint64_t) override {}

    void
    advance(uint64_t cycle) override
    {
        ++evaluated;
        ++charged;
        last_ = cycle;
        while (next_ < events_.size() && events_[next_] <= cycle)
            ++next_;
    }

    uint64_t
    nextEvent(uint64_t cycle) const override
    {
        return next_ < events_.size() ? std::max(events_[next_], cycle)
                                      : kNever;
    }

    void skipTo(uint64_t cycle) override { charged += cycle - last_ - 1; }

    uint64_t evaluated = 0;
    uint64_t charged = 0;

  private:
    std::vector<uint64_t> events_;
    size_t next_ = 0;
    uint64_t last_ = 0;
};

/** A component that does not opt in: live every cycle. */
class Plain : public Component
{
  public:
    Plain() : Component("plain") {}
    void publish(uint64_t) override {}
    void advance(uint64_t) override { ++evaluated; }

    uint64_t evaluated = 0;
};

} // namespace

TEST(Simulator, StepJumpsToTheEarliestEvent)
{
    // Every step ticks every component, then the clock jumps to the
    // earliest event of any component, and skipTo() charges each one
    // the cycles jumped over.
    EventTimer a({0, 10, 25}), b({4, 10});
    Simulator sim;
    sim.add(&a);
    sim.add(&b);
    while (sim.step(1000)) {
    }
    EXPECT_EQ(sim.cycle(), 26u); // the tick of cycle 25, then no event
    EXPECT_EQ(a.evaluated, 4u);  // cycles 0, 4, 10 and 25
    EXPECT_EQ(b.evaluated, 4u);
    EXPECT_EQ(a.charged, 26u);
    EXPECT_EQ(b.charged, 26u);

    // The jump stops at the limit; the next step resumes it.
    EventTimer c({0, 10});
    Simulator limited;
    limited.add(&c);
    EXPECT_TRUE(limited.step(5));
    EXPECT_EQ(limited.cycle(), 5u);
    EXPECT_TRUE(limited.step(1000));
    EXPECT_EQ(limited.cycle(), 10u);
    EXPECT_FALSE(limited.step(1000));
    EXPECT_EQ(limited.cycle(), 11u);
    EXPECT_EQ(c.evaluated, 3u); // cycles 0, 5 and 10
    EXPECT_EQ(c.charged, 11u);

    // A component that does not opt in is live every cycle, so the
    // clock never jumps: step is tick.
    EventTimer d({0, 10});
    Plain plain;
    Simulator mixed;
    mixed.add(&d);
    mixed.add(&plain);
    while (mixed.cycle() < 12)
        EXPECT_TRUE(mixed.step(1000));
    EXPECT_EQ(plain.evaluated, 12u);
    EXPECT_EQ(d.evaluated, 12u);
    EXPECT_EQ(d.charged, 12u);
}
