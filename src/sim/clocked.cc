#include "sim/clocked.hh"

#include "sim/logging.hh"

namespace emerald
{

Clocked::Clocked(ClockDomain &domain, std::string name, int priority)
    : _domain(domain), _clockedName(std::move(name)),
      _tickEvent([this] { processTick(); }, _clockedName + ".tick",
                 priority)
{
}

void
Clocked::activate()
{
    if (!_blocked) {
        if (!_tickEvent.scheduled())
            _domain.eventQueue().schedule(_tickEvent, _domain.clockEdge(0));
        return;
    }
    // A polled tick already ran at this edge, if now is one.
    tickBy(_domain.cyclesToTicks(curCycle() + 1));
}

void
Clocked::sleepBlocked(std::optional<Cycle> wake_cycle)
{
    _blocked = true;
    if (!wake_cycle)
        return;
    panic_if(*wake_cycle <= curCycle(),
             "%s: timed wake at cycle %llu is not in the future",
             _clockedName.c_str(), (unsigned long long)*wake_cycle);
    tickBy(_domain.cyclesToTicks(*wake_cycle));
}

void
Clocked::tickBy(Tick when)
{
    EventQueue &eq = _domain.eventQueue();
    if (!_tickEvent.scheduled())
        eq.schedule(_tickEvent, when);
    else if (_tickEvent.when() > when)
        eq.reschedule(_tickEvent, when);
}

void
Clocked::processTick()
{
    _blocked = false;
    bool more = tick();
    panic_if(more && _blocked, "%s: tick() slept blocked but returned true",
             _clockedName.c_str());
    if (more) {
        _domain.eventQueue().schedule(_tickEvent, _domain.clockEdge(1));
    }
}

} // namespace emerald
