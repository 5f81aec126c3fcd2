/**
 * @file
 * Clock domains and cycle-ticked components.
 *
 * A ClockDomain converts between ticks and cycles for one frequency.
 * Clocked is the base class for components that do work every cycle
 * while active: subclasses implement tick() and return whether they
 * still have work; idle components consume no events.
 *
 * Tick order: every component's tick event has a priority, by default
 * Event::clockPriority. Components at the same priority run in
 * scheduling order at a shared edge, which depends on when each one
 * last went to sleep; a component that must see its peers' changes at
 * a fixed cycle offset ticks at a lower priority, ahead of all of them.
 *
 * Two ways to sleep: tick() returns false when the component is idle,
 * and activate() restarts it at the next edge at or after now (so it
 * may tick again in the cycle it went idle). A component that is
 * blocked, not idle, calls sleepBlocked() before returning false: it
 * sleeps as if it still ticked every cycle and found nothing to do,
 * and may ask for a timed wake at a later cycle.
 */

#ifndef EMERALD_SIM_CLOCKED_HH
#define EMERALD_SIM_CLOCKED_HH

#include <optional>
#include <string>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace emerald
{

/** One clock frequency, shared by any number of components. */
class ClockDomain
{
  public:
    ClockDomain(EventQueue &eq, Tick period, std::string name)
        : _eq(eq), _period(period), _name(std::move(name))
    {}

    Tick period() const { return _period; }
    const std::string &name() const { return _name; }
    EventQueue &eventQueue() { return _eq; }

    /** Cycle count of the last edge at or before curTick. */
    Cycle
    curCycle() const
    {
        return _eq.curTick() / _period;
    }

    /**
     * The tick of the clock edge @p cycles_ahead full cycles after the
     * next edge at or after curTick. clockEdge(0) is "now" when curTick
     * is exactly on an edge.
     */
    Tick
    clockEdge(Cycle cycles_ahead = 0) const
    {
        Tick now = _eq.curTick();
        Tick aligned = divCeil(now, _period) * _period;
        return aligned + cycles_ahead * _period;
    }

    /** Ticks from now until @p cycles cycles have elapsed. */
    Tick
    cyclesToTicks(Cycle cycles) const
    {
        return cycles * _period;
    }

  private:
    EventQueue &_eq;
    Tick _period;
    std::string _name;
};

/**
 * Base class for components that are stepped once per clock cycle
 * while they have work to do.
 */
class Clocked
{
  public:
    /**
     * @param priority the tick event's priority. Components of a
     *        domain share Event::clockPriority and run in scheduling
     *        order at a shared edge; a lower value runs ahead of them
     *        all, whatever the order they were scheduled in.
     */
    Clocked(ClockDomain &domain, std::string name,
            int priority = Event::clockPriority);
    virtual ~Clocked() = default;

    Clocked(const Clocked &) = delete;
    Clocked &operator=(const Clocked &) = delete;

    /**
     * Make sure the component is ticking. Idempotent; safe to call
     * from any event context. After a plain sleep the tick lands on
     * the next edge at or after now. During a blocked sleep it lands
     * on the next edge strictly after now, or stays at an earlier
     * timed wake.
     */
    void activate();

    /** True when a tick is pending. */
    bool active() const { return _tickEvent.scheduled(); }

    ClockDomain &clockDomain() { return _domain; }
    const std::string &clockedName() const { return _clockedName; }

    /** Current cycle in this component's domain. */
    Cycle curCycle() const { return _domain.curCycle(); }

    /**
     * The per-cycle tick event, exposed so Clocked SimObjects can
     * register it for checkpointing (a scheduled tick event is what
     * "active" means, so restoring it restores activity).
     */
    Event &tickEvent() { return _tickEvent; }

  protected:
    /**
     * Do one cycle of work.
     * @return true to keep ticking next cycle, false to go idle
     *         (activate() restarts the component).
     */
    virtual bool tick() = 0;

    /**
     * Call from tick() just before it returns false, when the
     * component is blocked on an event rather than idle. It then
     * sleeps as if it still ticked every cycle and saw no change:
     * until its next tick, activate() lands on the first edge
     * strictly after now, the first edge where such a polled tick
     * could see what the caller changed. That edge is exact when the
     * component ticks ahead of every other event at an edge (see the
     * constructor's priority), so sleeping moves no result.
     *
     * @param wake_cycle a timed wake: tick at this cycle (later than
     *        the current one) unless activate() comes first.
     *
     * A blocked sleep is not checkpointed; a component must not be
     * checkpoint-safe while it sleeps blocked.
     */
    void sleepBlocked(std::optional<Cycle> wake_cycle = std::nullopt);

  private:
    void processTick();
    /** Tick at @p when, or keep an earlier pending tick. */
    void tickBy(Tick when);

    ClockDomain &_domain;
    std::string _clockedName;
    EventFunction _tickEvent;
    /** In a blocked sleep (sleepBlocked() until the next tick). */
    bool _blocked = false;
};

} // namespace emerald

#endif // EMERALD_SIM_CLOCKED_HH
