/**
 * @file
 * Shared physical register file and per-context rename maps.
 *
 * SMT threads of one core share a single physical register file; each
 * hardware context owns a committed rename map from architectural to
 * physical registers. This is the structural property SVt exploits:
 * a hypervisor context can reach a subordinate VM's registers by
 * indexing the *other* context's rename map into the same physical
 * file (ctxtld/ctxtst), with no memory traffic.
 */

#ifndef SVTSIM_ARCH_PHYS_REG_FILE_H
#define SVTSIM_ARCH_PHYS_REG_FILE_H

#include <array>
#include <cstdint>
#include <vector>

#include "arch/regs.h"

namespace svtsim {

/** Index of a physical register. */
using PhysReg = std::uint32_t;

/** Invalid physical register index. */
constexpr PhysReg invalidPhysReg = UINT32_MAX;

/**
 * The per-core pool of physical registers.
 *
 * Models only the committed storage (no speculative state): enough to
 * capture the sharing structure and capacity constraints.
 */
class PhysRegFile
{
  public:
    /** @param size Number of physical registers in the pool. */
    explicit PhysRegFile(std::size_t size);

    /** Allocate a free physical register. Raises PanicError when the
     *  pool is exhausted (rename deadlock in a real core). */
    PhysReg alloc();

    /** Return a register to the free pool. */
    void free(PhysReg reg);

    std::uint64_t read(PhysReg reg) const;
    void write(PhysReg reg, std::uint64_t value);

    std::size_t size() const { return values_.size(); }
    std::size_t freeCount() const { return freeList_.size(); }

  private:
    void check(PhysReg reg) const;

    std::vector<std::uint64_t> values_;
    std::vector<bool> allocated_;
    std::vector<PhysReg> freeList_;
};

/**
 * Committed rename map of one hardware context.
 *
 * Owns one physical register per architectural GPR; writes allocate a
 * fresh physical register and free the previous mapping, mirroring how
 * a rename stage recycles registers at commit.
 */
class RenameMap
{
  public:
    explicit RenameMap(PhysRegFile &prf);
    ~RenameMap();

    RenameMap(const RenameMap &) = delete;
    RenameMap &operator=(const RenameMap &) = delete;

    std::uint64_t read(Gpr reg) const;
    void write(Gpr reg, std::uint64_t value);

    /** All GPR values, in Gpr order. */
    GprValues readAll() const;

    /**
     * Write every GPR in one rename pass. Leaves exactly the mapping,
     * values and free list that numGprs sequential write()s in Gpr
     * order leave: each write frees the register the next one
     * allocates, so only the first allocation and the last free touch
     * the free list.
     */
    void writeAll(const GprValues &values);

    /** Physical register currently mapped to @p reg (what a
     *  cross-context access indexes). */
    PhysReg physOf(Gpr reg) const;

  private:
    PhysRegFile &prf_;
    std::array<PhysReg, numGprs> map_;
};

} // namespace svtsim

#endif // SVTSIM_ARCH_PHYS_REG_FILE_H
