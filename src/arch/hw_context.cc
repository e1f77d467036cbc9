#include "arch/hw_context.h"

#include "sim/log.h"

namespace svtsim {

HwContext::HwContext(PhysRegFile &prf, int index)
    : index_(index), rename_(prf)
{
}

std::uint64_t
HwContext::readCr(Ctrl cr) const
{
    return crs_[static_cast<std::size_t>(cr)];
}

void
HwContext::writeCr(Ctrl cr, std::uint64_t v)
{
    crs_[static_cast<std::size_t>(cr)] = v;
}

std::uint64_t
HwContext::rdmsr(std::uint32_t index) const
{
    auto it = msrs_.find(index);
    return it == msrs_.end() ? 0 : it->second;
}

void
HwContext::wrmsr(std::uint32_t index, std::uint64_t v)
{
    msrs_[index] = v;
}

} // namespace svtsim
