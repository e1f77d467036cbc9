#include "arch/phys_reg_file.h"

#include <utility>

#include "sim/log.h"

namespace svtsim {

PhysRegFile::PhysRegFile(std::size_t size)
    : values_(size, 0), allocated_(size, false)
{
    if (size == 0)
        fatal("PhysRegFile requires a non-empty pool");
    freeList_.reserve(size);
    // Hand out low indices first for deterministic tests.
    for (std::size_t i = size; i-- > 0;)
        freeList_.push_back(static_cast<PhysReg>(i));
}

PhysReg
PhysRegFile::alloc()
{
    if (freeList_.empty())
        panic("PhysRegFile exhausted (%zu registers)", values_.size());
    PhysReg reg = freeList_.back();
    freeList_.pop_back();
    allocated_[reg] = true;
    values_[reg] = 0;
    return reg;
}

void
PhysRegFile::free(PhysReg reg)
{
    check(reg);
    allocated_[reg] = false;
    freeList_.push_back(reg);
}

void
PhysRegFile::check(PhysReg reg) const
{
    if (reg >= values_.size())
        panic("PhysRegFile index %u out of range", reg);
    if (!allocated_[reg])
        panic("PhysRegFile access to unallocated register %u", reg);
}

std::uint64_t
PhysRegFile::read(PhysReg reg) const
{
    check(reg);
    return values_[reg];
}

void
PhysRegFile::write(PhysReg reg, std::uint64_t value)
{
    check(reg);
    values_[reg] = value;
}

RenameMap::RenameMap(PhysRegFile &prf)
    : prf_(prf)
{
    for (auto &m : map_)
        m = prf_.alloc();
}

RenameMap::~RenameMap()
{
    for (auto m : map_)
        if (m != invalidPhysReg)
            prf_.free(m);
}

std::uint64_t
RenameMap::read(Gpr reg) const
{
    return prf_.read(map_[static_cast<std::size_t>(reg)]);
}

void
RenameMap::write(Gpr reg, std::uint64_t value)
{
    auto idx = static_cast<std::size_t>(reg);
    // Commit-time recycling: new physical register, old one freed.
    PhysReg fresh = prf_.alloc();
    prf_.write(fresh, value);
    prf_.free(map_[idx]);
    map_[idx] = fresh;
}

GprValues
RenameMap::readAll() const
{
    GprValues values;
    for (std::size_t i = 0; i < map_.size(); ++i)
        values[i] = prf_.read(map_[i]);
    return values;
}

void
RenameMap::writeAll(const GprValues &values)
{
    // Sequential writes hand register i's old mapping straight to
    // register i + 1, so the chain needs one alloc and one free.
    PhysReg fresh = prf_.alloc();
    for (std::size_t i = 0; i < map_.size(); ++i) {
        prf_.write(fresh, values[i]);
        std::swap(fresh, map_[i]);
    }
    prf_.free(fresh);
}

PhysReg
RenameMap::physOf(Gpr reg) const
{
    return map_[static_cast<std::size_t>(reg)];
}

} // namespace svtsim
