#include <gtest/gtest.h>

#include "gpu/coalescer.hh"
#include "gpu/isa/assembler.hh"
#include "gpu/scoreboard.hh"
#include "gpu/simt_stack.hh"

using namespace emerald;
using namespace emerald::gpu;
using namespace emerald::gpu::isa;

namespace
{

Instruction
braInstr(int target, int rpc, int guard = 0)
{
    Instruction instr;
    instr.op = Opcode::BRA;
    instr.target = target;
    instr.reconvergePc = rpc;
    instr.guard = guard;
    return instr;
}

} // namespace

TEST(SimtStack, UniformExecutionAdvances)
{
    SimtStack stack;
    stack.reset(0xffffffffu);
    EXPECT_EQ(stack.pc(), 0);
    EXPECT_EQ(stack.activeMask(), 0xffffffffu);
    stack.advance();
    EXPECT_EQ(stack.pc(), 1);
    EXPECT_EQ(stack.depth(), 1u);
}

TEST(SimtStack, DivergenceAndReconvergence)
{
    SimtStack stack;
    stack.reset(0xffffffffu);
    // Branch at pc 0: lanes 0-15 taken (to pc 10), reconverge pc 20.
    stack.branch(braInstr(10, 20), 0x0000ffffu, 0xffffffffu);

    // Taken path executes first.
    EXPECT_EQ(stack.pc(), 10);
    EXPECT_EQ(stack.activeMask(), 0x0000ffffu);
    EXPECT_EQ(stack.depth(), 3u);

    // Walk the taken path to the reconvergence point.
    for (int pc = 10; pc < 20; ++pc)
        stack.advance();

    // Now the not-taken path (fallthrough pc 1).
    EXPECT_EQ(stack.pc(), 1);
    EXPECT_EQ(stack.activeMask(), 0xffff0000u);
    for (int pc = 1; pc < 20; ++pc)
        stack.advance();

    // Full mask restored at the reconvergence point.
    EXPECT_EQ(stack.pc(), 20);
    EXPECT_EQ(stack.activeMask(), 0xffffffffu);
    EXPECT_EQ(stack.depth(), 1u);
}

TEST(SimtStack, UniformTakenBranchJustJumps)
{
    SimtStack stack;
    stack.reset(0xfu);
    stack.branch(braInstr(7, 9), 0xfu, 0xfu);
    EXPECT_EQ(stack.pc(), 7);
    EXPECT_EQ(stack.depth(), 1u);
}

TEST(SimtStack, BranchTargetAtReconvergenceMergesImmediately)
{
    // Guarded jump straight to the join label: the taken entry starts
    // at the reconvergence pc and must merge at once (the bug behind
    // a barrier deadlock found during bring-up).
    SimtStack stack;
    stack.reset(0xffu);
    stack.branch(braInstr(5, 5), 0x0fu, 0xffu);
    // Taken lanes merged; not-taken path executes pc 1..4 first.
    EXPECT_EQ(stack.pc(), 1);
    EXPECT_EQ(stack.activeMask(), 0xf0u);
    for (int pc = 1; pc < 5; ++pc)
        stack.advance();
    EXPECT_EQ(stack.pc(), 5);
    EXPECT_EQ(stack.activeMask(), 0xffu);
    EXPECT_EQ(stack.depth(), 1u);
}

TEST(SimtStack, NestedDivergence)
{
    SimtStack stack;
    stack.reset(0xffffffffu);
    stack.branch(braInstr(10, 30), 0x0000ffffu, 0xffffffffu);
    EXPECT_EQ(stack.pc(), 10);
    // Nested branch inside the taken path.
    stack.branch(braInstr(20, 25), 0x000000ffu, 0xffffffffu);
    EXPECT_EQ(stack.pc(), 20);
    EXPECT_EQ(stack.activeMask(), 0x000000ffu);
    EXPECT_EQ(stack.depth(), 5u);

    for (int pc = 20; pc < 25; ++pc)
        stack.advance();
    EXPECT_EQ(stack.pc(), 11); // Inner not-taken.
    for (int pc = 11; pc < 25; ++pc)
        stack.advance();
    EXPECT_EQ(stack.pc(), 25);
    EXPECT_EQ(stack.activeMask(), 0x0000ffffu);
}

TEST(SimtStack, PruneDeadPopsEmptyEntries)
{
    SimtStack stack;
    stack.reset(0xffffffffu);
    stack.branch(braInstr(10, 20), 0x0000ffffu, 0xffffffffu);
    // All taken lanes exit.
    stack.pruneDead(0xffff0000u);
    EXPECT_EQ(stack.pc(), 1);
    EXPECT_EQ(stack.activeMask(), 0xffff0000u);

    // Everyone exits.
    stack.pruneDead(0);
    EXPECT_TRUE(stack.empty());
}

TEST(Coalescer, SequentialAccessesShareLine)
{
    std::vector<ThreadMemAccess> accesses;
    for (unsigned i = 0; i < 32; ++i)
        accesses.push_back({0x1000 + i * 4, 4, false});
    std::vector<CoalescedAccess> lines;
    coalesce(accesses, 128, lines);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0].lineAddr, 0x1000u);
}

TEST(Coalescer, StridedAccessesSplit)
{
    std::vector<ThreadMemAccess> accesses;
    for (unsigned i = 0; i < 32; ++i)
        accesses.push_back({Addr(i) * 128, 4, false});
    std::vector<CoalescedAccess> lines;
    coalesce(accesses, 128, lines);
    EXPECT_EQ(lines.size(), 32u);
}

TEST(Coalescer, ReadsAndWritesStayDistinct)
{
    std::vector<ThreadMemAccess> accesses = {
        {0x1000, 4, false},
        {0x1004, 4, true},
    };
    std::vector<CoalescedAccess> lines;
    coalesce(accesses, 128, lines);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_FALSE(lines[0].write);
    EXPECT_TRUE(lines[1].write);
}

TEST(Coalescer, PreservesFirstTouchOrder)
{
    std::vector<ThreadMemAccess> accesses = {
        {0x2000, 4, false},
        {0x1000, 4, false},
        {0x2004, 4, false},
    };
    // A reused buffer: its previous contents are dropped.
    std::vector<CoalescedAccess> lines = {{0x9000, true}};
    coalesce(accesses, 128, lines);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].lineAddr, 0x2000u);
    EXPECT_EQ(lines[1].lineAddr, 0x1000u);
}

TEST(Scoreboard, RawAndWawHazards)
{
    Scoreboard sb(4);
    Program p = assemble("t", R"(
        add.f32 r2, r0, r1
        add.f32 r3, r2, r1
        add.f32 r2, r4, r5
        add.f32 r6, r4, r5
        exit
    )");

    // Issue instr 0: r2 pending.
    EXPECT_TRUE(sb.ready(0, p.code[0]));
    sb.markPending(0, Scoreboard::destSlots(p.code[0]));

    EXPECT_FALSE(sb.ready(0, p.code[1])); // RAW on r2.
    EXPECT_FALSE(sb.ready(0, p.code[2])); // WAW on r2.
    EXPECT_TRUE(sb.ready(0, p.code[3]));  // Independent.
    EXPECT_TRUE(sb.ready(1, p.code[1]));  // Other warp unaffected.

    sb.release(0, Scoreboard::destSlots(p.code[0]));
    EXPECT_TRUE(sb.ready(0, p.code[1]));
    EXPECT_TRUE(sb.idle(0));
}

TEST(Scoreboard, PredicateDependencies)
{
    Scoreboard sb(1);
    Program p = assemble("t", R"(
        setp.lt.f32 p0, r0, r1
        @p0 mov.f32 r2, 1.0
        exit
    )");
    sb.markPending(0, Scoreboard::destSlots(p.code[0]));
    EXPECT_FALSE(sb.ready(0, p.code[1])); // Guard depends on p0.
    sb.release(0, Scoreboard::destSlots(p.code[0]));
    EXPECT_TRUE(sb.ready(0, p.code[1]));
}

TEST(Scoreboard, TexWritesQuad)
{
    Scoreboard sb(1);
    Program p = assemble("t", R"(
        tex.2d r4, t0, r0, r1
        add.f32 r8, r6, r7
        exit
    )");
    auto dests = Scoreboard::destSlots(p.code[0]);
    EXPECT_EQ(dests.size(), 4u);
    sb.markPending(0, dests);
    EXPECT_FALSE(sb.ready(0, p.code[1])); // r6/r7 in the quad.
}
