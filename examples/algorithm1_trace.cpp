/**
 * @file
 * Algorithm 1, step by step: run exactly one cpuid in the nested
 * baseline, SW SVt and HW SVt, and print where the time went — the
 * same six stages as the paper's Table 1, plus the SW SVt channel.
 *
 *   $ ./build/examples/algorithm1_trace
 */

#include <cstdio>

#include "stats/table.h"
#include "system/nested_system.h"

using namespace svtsim;

namespace {

struct StageRow
{
    ScopeId scope;
    const char *what;
};

const StageRow stages[] = {
    {ScopeId::StageL2, "L2 executes the sensitive instruction"},
    {ScopeId::StageSwitchL2L0, "switch L2<->L0 (trap + final resume)"},
    {ScopeId::StageTransform, "vmcs02 <-> vmcs12 transforms"},
    {ScopeId::StageL0Handler, "L0: dispatch, inject, nested state machine"},
    {ScopeId::StageSwitchL0L1, "switch L0<->L1 (or SVt stall/resume)"},
    {ScopeId::StageChannel, "SW SVt command rings + mwait wakes"},
    {ScopeId::StageL1Handler, "L1 handler (incl. its own traps to L0)"},
};

} // namespace

int
main()
{
    std::printf("One nested cpuid, dissected (Algorithm 1 of the "
                "paper):\n\n");

    Table t({"Stage", "Baseline (us)", "SW SVt (us)", "HW SVt (us)"});
    double totals[3] = {};
    std::vector<std::vector<double>> cells(
        std::size(stages), std::vector<double>(3, 0.0));

    int col = 0;
    for (VirtMode mode :
         {VirtMode::Nested, VirtMode::SwSvt, VirtMode::HwSvt}) {
        NestedSystem sys(mode);
        sys.api().cpuid(1); // warm up
        sys.machine().resetAttribution();
        sys.api().cpuid(1);
        for (std::size_t i = 0; i < std::size(stages); ++i) {
            double us =
                toUsec(sys.machine().scopeTotal(stages[i].scope));
            cells[i][static_cast<std::size_t>(col)] = us;
            totals[col] += us;
        }
        ++col;
    }

    for (std::size_t i = 0; i < std::size(stages); ++i) {
        t.addRow({stages[i].what, Table::num(cells[i][0], 2),
                  Table::num(cells[i][1], 2),
                  Table::num(cells[i][2], 2)});
    }
    t.addRow({"TOTAL", Table::num(totals[0], 2),
              Table::num(totals[1], 2), Table::num(totals[2], 2)});
    std::printf("%s\n", t.render().c_str());

    std::printf("Reading the table:\n"
                " - SW SVt deletes the L0<->L1 context switch and the "
                "vmread-grade register injection, paying a pair of\n"
                "   mwait-channel wakes instead (Section 5.2).\n"
                " - HW SVt turns every switch into a ~20 ns thread "
                "stall/resume and reaches L2's registers with\n"
                "   ctxtld/ctxtst, shrinking the L0 handler and the "
                "L1 handler's folded trap as well (Section 4).\n"
                " - The VMCS transforms remain in all variants: SVt "
                "accelerates context switches, not the nested state\n"
                "   bookkeeping itself (Section 3).\n");
    return 0;
}
