#include "gpu/simt_core.hh"

#include <bit>

#include "mem/traffic_trace.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace emerald::gpu
{

using isa::Instruction;
using isa::LatencyClass;
using isa::Opcode;

namespace
{

/** Index into SimtCore::_writebacks by fixed latency. */
enum WritebackClass : unsigned { wbAlu, wbSfu, wbShared };

} // namespace

SimtCore::SimtCore(Simulation &sim, const std::string &name,
                   ClockDomain &domain, const SimtCoreParams &params,
                   MemSink &downstream)
    : SimObject(sim, name), Clocked(domain, name),
      statCyclesActive(*this, "cycles_active",
                       "cycles with work resident"),
      statWarpInstrs(*this, "warp_instrs", "warp instructions issued"),
      statThreadInstrs(*this, "thread_instrs",
                       "thread instructions executed"),
      statTasksVertex(*this, "tasks_vertex", "vertex warps run"),
      statTasksFragment(*this, "tasks_fragment", "fragment warps run"),
      statTasksCompute(*this, "tasks_compute", "compute warps run"),
      statStallNoReadyWarp(*this, "stall_no_ready_warp",
                           "scheduler cycles with no ready warp"),
      statLsuStalls(*this, "lsu_stalls",
                    "LSU sends blocked pending an L1 retry"),
      _params(params), _downstream(downstream),
      _warps(params.maxWarps), _scoreboard(params.maxWarps),
      _eligible(params.schedulers, 0),
      _draining((params.maxWarps + 63) / 64, 0)
{
    // Each scheduler lane owns an interleaved subset of the warp
    // slots; the policy object only ever picks from its own subset,
    // held as one 64-bit eligible mask.
    fatal_if(params.schedulers == 0, "%s: needs at least one warp "
             "scheduler", name.c_str());
    unsigned per_lane = (params.maxWarps + params.schedulers - 1) /
                        params.schedulers;
    fatal_if(per_lane > 64,
             "%s: %u warp slots over %u schedulers put %u slots in one "
             "lane; a lane holds at most 64",
             name.c_str(), params.maxWarps, params.schedulers, per_lane);
    for (unsigned s = 0; s < params.schedulers; ++s) {
        std::vector<unsigned> owned;
        for (unsigned slot = s; slot < params.maxWarps;
             slot += params.schedulers) {
            owned.push_back(slot);
        }
        _warpScheds.push_back(
            createWarpScheduler(params.warpSched, std::move(owned), s));
    }

    auto make_cache = [&](const char *cache_name,
                          cache::CacheParams cp) {
        cp.trafficClass = TrafficClass::Gpu;
        cp.requestorId = gpuRequestorId;
        auto c = std::make_unique<cache::Cache>(
            sim, name + "." + cache_name, domain, cp);
        c->setDownstream(downstream);
        return c;
    };
    _l1i = make_cache("l1i", params.l1i);
    _l1d = make_cache("l1d", params.l1d);
    _l1t = make_cache("l1t", params.l1t);
    _l1z = make_cache("l1z", params.l1z);
    _l1c = make_cache("l1c", params.l1c);

    registerCheckpointEvent(tickEvent());
    registerCheckpointClient(*this);
    registerCheckpointRequestor(*this);
}

void
SimtCore::serialize(CheckpointOut &out) const
{
    // Checkpoints only happen at quiescent points (checkpointSafe()),
    // so resident warps, LSU state and scoreboard entries are all
    // empty; only the allocation cursors that steer future decisions
    // need to survive.
    panic_if(!idle(), "%s: serialize while busy", name().c_str());
    std::vector<std::uint64_t> cursors;
    for (const auto &sched : _warpScheds)
        cursors.push_back(sched->cursorState());
    out.putU64Vec("sched_cursor", cursors);
    out.putStr("warp_sched", _warpScheds.empty()
                                 ? ""
                                 : _warpScheds[0]->policyName());
    out.putU64("launch_seq", _launchSeq);
    std::vector<std::uint64_t> free_list(_memInstrFreeList.begin(),
                                         _memInstrFreeList.end());
    out.putU64Vec("mem_instr_free_list", free_list);
    out.putU64("num_mem_instrs", _memInstrs.size());
}

void
SimtCore::unserialize(CheckpointIn &in)
{
    panic_if(!idle(), "%s: unserialize while busy", name().c_str());
    auto cursors = in.getU64Vec("sched_cursor");
    fatal_if(cursors.size() != _warpScheds.size(),
             "%s: checkpoint holds %zu schedulers but this "
             "configuration has %zu",
             name().c_str(), cursors.size(), _warpScheds.size());
    std::string policy = in.getStr("warp_sched");
    fatal_if(!_warpScheds.empty() &&
                 policy != _warpScheds[0]->policyName(),
             "%s: checkpoint was taken under warp scheduler '%s' but "
             "this run uses '%s'",
             name().c_str(), policy.c_str(),
             _warpScheds[0]->policyName());
    for (std::size_t s = 0; s < cursors.size(); ++s)
        _warpScheds[s]->setCursorState(cursors[s]);
    _launchSeq = in.getU64("launch_seq");
    _memInstrs.clear();
    _memInstrs.resize(in.getU64("num_mem_instrs"));
    _memInstrFreeList.clear();
    for (std::uint64_t id : in.getU64Vec("mem_instr_free_list"))
        _memInstrFreeList.push_back(static_cast<unsigned>(id));
}

bool
SimtCore::checkpointSafe() const
{
    return idle();
}

cache::Cache &
SimtCore::l1ForKind(AccessKind kind)
{
    switch (kind) {
      case AccessKind::Inst: return *_l1i;
      case AccessKind::Texture: return *_l1t;
      case AccessKind::Depth: return *_l1z;
      case AccessKind::Constant:
      case AccessKind::Vertex: return *_l1c;
      default: return *_l1d;
    }
}

bool
SimtCore::tryAddTask(WarpTask &&task)
{
    if (!hasTaskRoom())
        return false;
    _taskQueue.push_back(std::move(task));
    activate();
    return true;
}

bool
SimtCore::idle() const
{
    return _taskQueue.empty() && _lsuQueue.empty() &&
           !writebacksPending() && _resident == 0;
}

bool
SimtCore::writebacksPending() const
{
    for (const std::deque<Writeback> &fifo : _writebacks) {
        if (!fifo.empty())
            return true;
    }
    return false;
}

bool
SimtCore::computeEligible(unsigned slot) const
{
    const Warp &warp = _warps[slot];
    if (!warp.valid || warp.draining || warp.atBarrier ||
        warp.pendingInitFetch > 0 ||
        warp.pendingMemInstrs >= _params.maxPendingMemInstrsPerWarp ||
        warp.stack.empty()) {
        return false;
    }
    int pc = warp.stack.pc();
    if (pc < 0 ||
        pc >= static_cast<int>(warp.task.program->code.size())) {
        panic("%s: warp pc %d out of range in %s", name().c_str(), pc,
              warp.task.program->name.c_str());
    }
    return _scoreboard.ready(
        slot, warp.task.program->code[static_cast<std::size_t>(pc)]);
}

void
SimtCore::refreshEligible(unsigned slot)
{
    std::uint64_t bit = std::uint64_t{1} << (slot / _params.schedulers);
    std::uint64_t &mask = _eligible[slot % _params.schedulers];
    if (computeEligible(slot))
        mask |= bit;
    else
        mask &= ~bit;
}

void
SimtCore::verifyEligible() const
{
    unsigned resident = 0;
    for (unsigned slot = 0; slot < _warps.size(); ++slot) {
        const Warp &warp = _warps[slot];
        resident += warp.valid;
        unsigned lane = slot % _params.schedulers;
        bool have = (_eligible[lane] >> (slot / _params.schedulers)) & 1;
        bool want = computeEligible(slot);
        panic_if(have != want,
                 "%s: lane %u eligible mask has slot %u %s, but the "
                 "warp is %s",
                 name().c_str(), lane, slot, have ? "set" : "clear",
                 want ? "eligible" : "not eligible");
        bool listed = (_draining[slot / 64] >> (slot % 64)) & 1;
        panic_if(listed != (warp.valid && warp.draining),
                 "%s: drain set %s slot %u", name().c_str(),
                 listed ? "holds" : "misses", slot);
    }
    panic_if(resident != _resident,
             "%s: %u resident warps counted, %u valid", name().c_str(),
             _resident, resident);
}

unsigned
SimtCore::allocMemInstr(unsigned slot, const SlotList &regs,
                        bool init_fetch)
{
    unsigned id;
    if (!_memInstrFreeList.empty()) {
        id = _memInstrFreeList.back();
        _memInstrFreeList.pop_back();
    } else {
        id = static_cast<unsigned>(_memInstrs.size());
        _memInstrs.emplace_back();
    }
    MemInstrState &state = _memInstrs[id];
    state.inUse = true;
    state.slot = slot;
    state.regSlots = regs;
    state.outstanding = 0;
    state.initFetch = init_fetch;
    return id;
}

void
SimtCore::launchQueuedTasks()
{
    while (!_taskQueue.empty()) {
        WarpTask &task = _taskQueue.front();
        unsigned regs_needed =
            task.program->numRegs * isa::warpSize;
        if (_regsInUse + regs_needed > _params.numRegisters ||
            _threadsInUse + isa::warpSize > _params.maxThreads ||
            _resident == _warps.size()) {
            return;
        }
        int free_slot = -1;
        for (unsigned i = 0; i < _warps.size(); ++i) {
            if (!_warps[i].valid) {
                free_slot = static_cast<int>(i);
                break;
            }
        }
        panic_if(free_slot < 0, "%s: %u resident warps but no free slot",
                 name().c_str(), _resident);

        Warp &warp = _warps[static_cast<unsigned>(free_slot)];
        warp.valid = true;
        warp.task = std::move(task);
        _taskQueue.pop_front();
        warp.stack.reset(warp.task.activeMask);
        warp.pendingInitFetch = 0;
        warp.pendingMemInstrs = 0;
        warp.atBarrier = false;
        warp.draining = false;
        warp.lastFetchLine = -1;
        warp.fetchBase = fetchBaseFor(*warp.task.program);
        warp.warpInstrsExecuted = 0;
        warp.launchSeq = _launchSeq++;
        _scoreboard.resetWarp(static_cast<unsigned>(free_slot));
        ++_resident;
        _regsInUse += regs_needed;
        _threadsInUse += isa::warpSize;

        switch (warp.task.type) {
          case WarpTaskType::Vertex: ++statTasksVertex; break;
          case WarpTaskType::Fragment: ++statTasksFragment; break;
          case WarpTaskType::Compute: ++statTasksCompute; break;
        }

        if (!warp.task.initFetch.empty()) {
            coalesce(warp.task.initFetch, _params.l1c.lineSize, _lines);
            unsigned id = allocMemInstr(
                static_cast<unsigned>(free_slot), SlotList{}, true);
            MemInstrState &state = _memInstrs[id];
            for (const CoalescedAccess &line : _lines) {
                if (line.write)
                    continue;
                ++state.outstanding;
                _lsuQueue.push_back({line.lineAddr, false,
                                     warp.task.initFetchKind,
                                     static_cast<int>(id)});
            }
            if (state.outstanding == 0) {
                state.inUse = false;
                _memInstrFreeList.push_back(id);
            } else {
                warp.pendingInitFetch = state.outstanding;
            }
        }
        refreshEligible(static_cast<unsigned>(free_slot));
    }
}

Addr
SimtCore::fetchBaseFor(const isa::Program &program)
{
    // Synthetic instruction addresses: stable per program. Derived
    // from the program NAME, never its host pointer — heap addresses
    // vary run to run, which would leak host allocator state into L1I
    // conflict patterns and break event-stream determinism (caught by
    // the sim.check.event_hash verifier).
    std::uint64_t name_hash = 0xcbf29ce484222325ULL;
    for (char c : program.name) {
        name_hash ^= static_cast<unsigned char>(c);
        name_hash *= 0x00000100000001b3ULL;
    }
    return 0x40000000ULL ^ (name_hash & 0x0FFFF000ULL);
}

void
SimtCore::chargeInstructionFetch(Warp &warp)
{
    std::int64_t line = warp.stack.pc() / _params.instrsPerFetchLine;
    if (line == warp.lastFetchLine)
        return;
    warp.lastFetchLine = line;
    Addr addr =
        warp.fetchBase + static_cast<Addr>(line) * _params.l1i.lineSize;
    _lsuQueue.push_back({addr, false, AccessKind::Inst, -1});
}

void
SimtCore::executeWarp(unsigned slot)
{
    Warp &warp = _warps[slot];
    const Instruction &instr =
        warp.task.program->code[static_cast<std::size_t>(
            warp.stack.pc())];

    chargeInstructionFetch(warp);

    std::uint32_t active = warp.stack.activeMask();
    executeWarpInstruction(instr, active, warp.task.threads.data(),
                           warp.task.env, _effects);

    ++statWarpInstrs;
    statThreadInstrs += std::popcount(_effects.execMask);
    ++warp.warpInstrsExecuted;

    std::uint32_t alive = warp.aliveMask();
    if (instr.isBranch())
        warp.stack.branch(instr, _effects.takenMask, alive);
    else
        warp.stack.advance();

    if (instr.op == Opcode::EXIT || instr.op == Opcode::DISCARD ||
        instr.op == Opcode::ZTEST) {
        warp.stack.pruneDead(alive);
    }

    // Latency / memory handling.
    LatencyClass lat = instr.latencyClass();
    SlotList dests = Scoreboard::destSlots(instr);

    auto fixed_latency = [&](WritebackClass fifo, Cycle cycles) {
        if (dests.empty())
            return;
        _scoreboard.markPending(slot, dests);
        Tick release = curTick() + clockDomain().cyclesToTicks(cycles);
        _writebacks[fifo].push_back({release, slot, dests});
    };

    switch (lat) {
      case LatencyClass::Alu:
      case LatencyClass::Control:
        fixed_latency(wbAlu, _params.aluLatency);
        break;
      case LatencyClass::Sfu:
        fixed_latency(wbSfu, _params.sfuLatency);
        break;
      case LatencyClass::MemShared:
        fixed_latency(wbShared, _params.sharedMemLatency);
        break;
      case LatencyClass::MemGlobal:
      case LatencyClass::Tex:
      case LatencyClass::Rop: {
        coalesce(_effects.accesses, _params.l1d.lineSize, _lines);
        unsigned reads = 0;
        for (const CoalescedAccess &line : _lines) {
            if (!line.write)
                ++reads;
        }
        if (reads > 0) {
            unsigned id = allocMemInstr(slot, dests, false);
            _memInstrs[id].outstanding = reads;
            if (!dests.empty())
                _scoreboard.markPending(slot, dests);
            ++warp.pendingMemInstrs;
            for (const CoalescedAccess &line : _lines) {
                _lsuQueue.push_back({line.lineAddr, line.write,
                                     _effects.kind,
                                     line.write
                                         ? -1
                                         : static_cast<int>(id)});
            }
        } else {
            // Stores only (or fully predicated-off): no read deps.
            for (const CoalescedAccess &line : _lines) {
                _lsuQueue.push_back(
                    {line.lineAddr, line.write, _effects.kind, -1});
            }
            fixed_latency(wbAlu, _params.aluLatency);
        }
        break;
      }
    }

    if (instr.op == Opcode::BAR)
        barrierArrive(slot);

    if (warp.executionDone()) {
        warp.draining = true;
        _draining[slot / 64] |= std::uint64_t{1} << (slot % 64);
    }
    refreshEligible(slot);
}

void
SimtCore::barrierArrive(unsigned slot)
{
    Warp &warp = _warps[slot];
    if (warp.task.ctaKey < 0 || warp.task.ctaWarps <= 1)
        return; // Degenerate barrier: nothing to wait for.
    warp.atBarrier = true;
    auto group = _barrierArrived.try_emplace(warp.task.ctaKey, 0).first;
    if (++group->second < warp.task.ctaWarps)
        return;
    // Release: the group's next barrier starts a fresh entry, and a
    // finished CTA leaves none behind (keys are never reused).
    _barrierArrived.erase(group);
    for (unsigned other = 0; other < _warps.size(); ++other) {
        Warp &w = _warps[other];
        if (w.valid && w.task.ctaKey == warp.task.ctaKey) {
            w.atBarrier = false;
            refreshEligible(other);
        }
    }
}

bool
SimtCore::issueFrom(unsigned scheduler)
{
#ifdef EMERALD_CHECKS
    verifyEligible();
#endif
    std::uint64_t eligible = _eligible[scheduler];
    if (eligible == 0)
        return false;
    WarpScheduler &sched = *_warpScheds[scheduler];
    unsigned slot = sched.pick(_warps, eligible);
    executeWarp(slot);
    sched.issued(slot);
    return true;
}

void
SimtCore::drainLsu()
{
    if (_lsuRetryPkt)
        return; // Head is blocked; the L1 wakes us when a slot frees.
    for (unsigned i = 0; i < _params.lsuIssuePerCycle; ++i) {
        if (_lsuQueue.empty())
            return;
        const LsuTxn &txn = _lsuQueue.front();
        bool posted = txn.memInstrId < 0;
        auto *pkt = sim().packetPool().alloc(
            txn.lineAddr, _params.l1d.lineSize, txn.write,
            TrafficClass::Gpu, txn.kind, gpuRequestorId,
            posted ? nullptr : this,
            posted ? 0 : static_cast<std::uint64_t>(txn.memInstrId));
        if (!l1ForKind(txn.kind).offer(pkt, *this)) {
            _lsuRetryPkt = pkt;
            ++statLsuStalls;
            return;
        }
        if (_traceWriter) {
            _traceWriter->record(_traceClient, curTick(), txn.lineAddr,
                                 txn.kind, txn.write);
        }
        _lsuQueue.pop_front();
    }
}

void
SimtCore::retryRequest()
{
    MemPacket *pkt = _lsuRetryPkt;
    if (!pkt) {
        activate();
        return; // Spurious wake; nothing pending.
    }
    _lsuRetryPkt = nullptr;
    const LsuTxn &txn = _lsuQueue.front();
    if (!l1ForKind(txn.kind).offer(pkt, *this)) {
        _lsuRetryPkt = pkt;
        return;
    }
    if (_traceWriter) {
        _traceWriter->record(_traceClient, curTick(), txn.lineAddr,
                             txn.kind, txn.write);
    }
    _lsuQueue.pop_front();
    activate();
}

void
SimtCore::memResponse(MemPacket *pkt)
{
    unsigned id = static_cast<unsigned>(pkt->token);
    panic_if(id >= _memInstrs.size() || !_memInstrs[id].inUse,
             "%s: response for unknown mem instr", name().c_str());
    MemInstrState &state = _memInstrs[id];
    panic_if(state.outstanding == 0, "mem instr over-completed");
    --state.outstanding;
    if (state.outstanding == 0) {
        Warp &warp = _warps[state.slot];
        if (state.initFetch) {
            warp.pendingInitFetch = 0;
        } else {
            if (!state.regSlots.empty())
                _scoreboard.release(state.slot, state.regSlots);
            panic_if(warp.pendingMemInstrs == 0,
                     "pendingMemInstrs underflow");
            --warp.pendingMemInstrs;
        }
        state.inUse = false;
        state.regSlots = {};
        _memInstrFreeList.push_back(id);
        refreshEligible(state.slot);
    }
    freePacket(pkt);
    activate();
}

void
SimtCore::processWritebacks()
{
    Tick now = curTick();
    for (std::deque<Writeback> &fifo : _writebacks) {
        while (!fifo.empty() && fifo.front().release <= now) {
            const Writeback &wb = fifo.front();
            _scoreboard.release(wb.slot, wb.regs);
            refreshEligible(wb.slot);
            fifo.pop_front();
        }
    }
}

void
SimtCore::finishDrainedWarps()
{
    // Ascending slot order, so completion callbacks run in the order
    // a scan over every slot would run them.
    for (std::size_t word = 0; word < _draining.size(); ++word) {
        for (std::uint64_t bits = _draining[word]; bits;
             bits &= bits - 1) {
            unsigned bit = static_cast<unsigned>(std::countr_zero(bits));
            unsigned slot = static_cast<unsigned>(word * 64 + bit);
            Warp &warp = _warps[slot];
            if (warp.pendingInitFetch > 0 || warp.pendingMemInstrs > 0 ||
                !_scoreboard.idle(slot)) {
                continue;
            }
            // Free resources before the callback so completion
            // handlers can immediately enqueue follow-up work.
            _draining[word] &= ~(std::uint64_t{1} << bit);
            WarpTask task = std::move(warp.task);
            warp.valid = false;
            warp.draining = false;
            --_resident;
            refreshEligible(slot);
            _regsInUse -= task.program->numRegs * isa::warpSize;
            _threadsInUse -= isa::warpSize;
            if (task.onComplete)
                task.onComplete(task, task.threads.data());
        }
    }
}

bool
SimtCore::tick()
{
    processWritebacks();
    launchQueuedTasks();

    bool any_resident = _resident > 0;
    if (any_resident)
        ++statCyclesActive;

    bool issued_any = false;
    for (unsigned s = 0; s < _params.schedulers; ++s) {
        if (issueFrom(s))
            issued_any = true;
        else if (any_resident)
            ++statStallNoReadyWarp;
    }

    drainLsu();
    finishDrainedWarps();

    if (idle())
        return false;

    // Sleep while only an external event (a memory response) can
    // unblock us: nothing issued, and no local work is pending.
    // memResponse() reactivates the core. This keeps long DRAM
    // stalls (e.g. the paper's 133 Mb/s high-load scenario) from
    // costing one simulation event per idle cycle.
    bool local_work = issued_any ||
                      (!_lsuQueue.empty() && !_lsuRetryPkt) ||
                      writebacksPending() || !_taskQueue.empty();
    return local_work;
}

} // namespace emerald::gpu
