#include "virt/vmcs.h"

#include <algorithm>

#include "sim/log.h"

namespace svtsim {

namespace {

static_assert(std::is_sorted(std::begin(vmcsFieldTable),
                             std::begin(vmcsFieldTable) + numVmcsFields,
                             [](const VmcsFieldInfo &a,
                                const VmcsFieldInfo &b) {
                                 return a.cls < b.cls;
                             }),
              "SVTSIM_VMCS_FIELDS lists the fields class by class");

/** Index of each class's first field (the count of fields in earlier
 *  classes), then the end. */
constexpr auto classStart = [] {
    std::array<std::size_t, static_cast<std::size_t>(VmcsFieldClass::Svt) + 2>
        start{};
    for (std::size_t i = 0; i < numVmcsFields; ++i)
        for (auto c = static_cast<std::size_t>(vmcsFieldTable[i].cls) + 1;
             c < start.size(); ++c)
            ++start[c];
    return start;
}();

} // namespace

Vmcs::Vmcs(std::string name)
    : name_(std::move(name))
{
    for (VmcsField f :
         {VmcsField::SvtVisor, VmcsField::SvtVm, VmcsField::SvtNested})
        write(f, svtInvalidContext);
    write(VmcsField::VmcsLinkPointer, ~0ULL);
}

void
Vmcs::invalidField(VmcsField field) const
{
    panic("Vmcs %s: invalid field %u", name_.c_str(),
          static_cast<unsigned>(field));
}

void
Vmcs::copyClassFrom(const Vmcs &src, VmcsFieldClass cls)
{
    const auto c = static_cast<std::size_t>(cls);
    std::copy(src.values_.begin() + classStart[c],
              src.values_.begin() + classStart[c + 1],
              values_.begin() + classStart[c]);
}

void
Vmcs::recordExit(const ExitInfo &info)
{
    write(VmcsField::ExitReasonField,
          static_cast<std::uint64_t>(info.reason));
    write(VmcsField::ExitQualification, info.qualification);
    write(VmcsField::GuestPhysAddr, info.guestPhysAddr);
    write(VmcsField::ExitInstrLen, info.instrLength);
    write(VmcsField::ExitIntrInfo, info.vector);
    write(VmcsField::ExitInstrInfo, info.field);
    write(VmcsField::GuestLinearAddr, info.value);
}

ExitInfo
Vmcs::exitInfo() const
{
    ExitInfo info;
    info.reason = static_cast<ExitReason>(
        read(VmcsField::ExitReasonField));
    info.qualification = read(VmcsField::ExitQualification);
    info.guestPhysAddr = read(VmcsField::GuestPhysAddr);
    info.instrLength = read(VmcsField::ExitInstrLen);
    info.vector =
        static_cast<std::uint8_t>(read(VmcsField::ExitIntrInfo));
    info.field = read(VmcsField::ExitInstrInfo);
    info.value = read(VmcsField::GuestLinearAddr);
    return info;
}

} // namespace svtsim
