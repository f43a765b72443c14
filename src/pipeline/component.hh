/**
 * @file
 * Base class and simulation kernel for cycle-driven components.
 *
 * All RayFlex model components are Moore machines: every output signal
 * (valid, bits, ready) is a function of registered state only. Each clock
 * cycle therefore evaluates in two phases with no ordering constraints
 * inside a phase:
 *
 *  1. publish(): every component drives its output signals onto its ports
 *     from current register state.
 *  2. advance(): every component samples its ports, computes which
 *     handshakes fire, and updates registers (the clock edge).
 *
 * This mirrors the self-synchronizing elastic pipeline of the paper: there
 * is no global controller, only local handshakes (Section III-C).
 *
 * Because registers change only when a handshake fires, a cycle in
 * which no component changed state repeats until the next known
 * event. A component may opt in to reporting that event
 * (nextEvent/skipTo): Simulator::step ticks once, then jumps the clock
 * over the cycles in which no component can change. A component that
 * does not opt in is live every cycle, so the clock never jumps past
 * it.
 */
#ifndef RAYFLEX_PIPELINE_COMPONENT_HH
#define RAYFLEX_PIPELINE_COMPONENT_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace rayflex::pipeline
{

/** A clocked component participating in two-phase simulation. */
class Component
{
  public:
    explicit Component(std::string name) : name_(std::move(name)) {}
    virtual ~Component() = default;

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    /** Drive output signals from registered state (combinational). */
    virtual void publish(uint64_t cycle) = 0;

    /** Sample ports, compute fires, update registers (clock edge). */
    virtual void advance(uint64_t cycle) = 0;

    /** nextEvent() of a component that will never change state again. */
    static constexpr uint64_t kNever = ~uint64_t(0);

    /** The first cycle >= `cycle` (the next one to tick) in which this
     *  component may change state, or kNever. Every cycle before it
     *  would repeat the last advance() and change nothing but
     *  counters. The default keeps the component live every cycle. */
    virtual uint64_t nextEvent(uint64_t cycle) const { return cycle; }

    /** Account the cycles after the last advance() and before `cycle`,
     *  which the simulator jumps over as nextEvent() allowed, exactly
     *  as if each had been evaluated. */
    virtual void skipTo(uint64_t cycle) { (void)cycle; }

    /** Component instance name, used in statistics reports. */
    const std::string &name() const { return name_; }

  private:
    std::string name_;
};

/**
 * The simulation kernel: owns no components, just steps a set of them.
 * Components must be registered in any order; correctness does not depend
 * on evaluation order because all components are Moore machines.
 */
class Simulator
{
  public:
    /** Register a component. The caller retains ownership. */
    void add(Component *c) { components_.push_back(c); }

    /** Advance the simulation by one clock cycle. */
    void
    tick()
    {
        for (Component *c : components_)
            c->publish(cycle_);
        for (Component *c : components_)
            c->advance(cycle_);
        ++cycle_;
    }

    /** Advance the simulation by n clock cycles. */
    void
    run(uint64_t n)
    {
        for (uint64_t i = 0; i < n; ++i)
            tick();
    }

    /**
     * Tick once, then jump the clock over the cycles in which no
     * component can change state: to the earliest nextEvent(), but no
     * further than cycle `limit`, charging the jumped cycles through
     * skipTo(). Polling stops at the first component that may change
     * state in the next cycle: no jump is possible then.
     * @return false when no component will ever change state again
     *         (every later cycle would repeat the last one).
     */
    bool
    step(uint64_t limit)
    {
        tick();
        uint64_t next = Component::kNever;
        for (Component *c : components_) {
            next = std::min(next, c->nextEvent(cycle_));
            if (next == cycle_)
                return true;
        }
        if (next == Component::kNever)
            return false;
        next = std::min(next, limit);
        if (next > cycle_) {
            for (Component *c : components_)
                c->skipTo(next);
            cycle_ = next;
        }
        return true;
    }

    /**
     * Run until the predicate returns true (checked after each cycle) or
     * the cycle limit is hit.
     * @return true if the predicate was satisfied.
     */
    template <typename Pred>
    bool
    runUntil(Pred pred, uint64_t max_cycles)
    {
        for (uint64_t i = 0; i < max_cycles; ++i) {
            tick();
            if (pred())
                return true;
        }
        return false;
    }

    /** Current cycle count (number of completed ticks). */
    uint64_t cycle() const { return cycle_; }

  private:
    std::vector<Component *> components_;
    uint64_t cycle_ = 0;
};

} // namespace rayflex::pipeline

#endif // RAYFLEX_PIPELINE_COMPONENT_HH
