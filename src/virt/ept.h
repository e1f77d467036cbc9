/**
 * @file
 * Extended page tables (EPT): second-dimension address translation for
 * guest-physical to host-physical addresses.
 */

#ifndef SVTSIM_VIRT_EPT_H
#define SVTSIM_VIRT_EPT_H

#include <cstdint>
#include <string>
#include <unordered_map>

namespace svtsim {

/** Guest-physical address. */
using Gpa = std::uint64_t;
/** Host-physical address. */
using Hpa = std::uint64_t;

constexpr std::uint64_t pageShift = 12;
constexpr std::uint64_t pageSize = 1ULL << pageShift;

/** Access type for a translation. */
enum class EptAccess { Read, Write, Exec };

/** Permissions of an EPT mapping. */
struct EptPerms
{
    bool read = true;
    bool write = true;
    bool exec = true;
};

/**
 * One guest's EPT.
 *
 * Modeled as a page-granular map. A translation reports how many
 * paging levels were walked so callers can charge walk costs. MMIO
 * regions are deliberately misconfigured so accesses take the
 * EPT_MISCONFIG fast path, exactly like KVM marks virtio doorbell
 * pages (the EPT_MISCONFIG profile entries of Section 6.2 come from
 * this path).
 */
class Ept
{
  public:
    explicit Ept(std::string name);

    /** Map @p npages starting at @p gpa to @p hpa with @p perms. */
    void map(Gpa gpa, Hpa hpa, EptPerms perms = {},
             std::uint64_t npages = 1);

    /** Mark a region as misconfigured MMIO (device doorbells). */
    void markMmio(Gpa gpa, std::uint64_t npages = 1);

    /** Outcome of a translation attempt. */
    struct Result
    {
        enum class Kind { Ok, Violation, Misconfig };
        Kind kind = Kind::Violation;
        Hpa hpa = 0;
        /** Page-table levels touched (for walk-cost accounting). */
        int levelsWalked = 4;
    };

    /** Translate @p gpa for @p access. */
    Result translate(Gpa gpa, EptAccess access) const;

    /** Drop every mapping (shadow-EPT teardown on INVEPT emulation:
     *  translations re-merge lazily on the next faults). */
    void clear();

    std::uint64_t mappedPages() const { return entries_.size(); }
    const std::string &name() const { return name_; }

  private:
    struct Entry
    {
        Hpa hpa;
        EptPerms perms;
        bool mmio;
    };

    std::string name_;
    std::unordered_map<std::uint64_t, Entry> entries_;
};

} // namespace svtsim

#endif // SVTSIM_VIRT_EPT_H
