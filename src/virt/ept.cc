#include "virt/ept.h"

#include "sim/log.h"

namespace svtsim {

Ept::Ept(std::string name)
    : name_(std::move(name))
{
}

void
Ept::map(Gpa gpa, Hpa hpa, EptPerms perms, std::uint64_t npages)
{
    if (gpa % pageSize || hpa % pageSize)
        fatal("Ept::map requires page-aligned addresses");
    for (std::uint64_t i = 0; i < npages; ++i) {
        entries_[(gpa >> pageShift) + i] =
            Entry{hpa + i * pageSize, perms, false};
    }
}

void
Ept::markMmio(Gpa gpa, std::uint64_t npages)
{
    if (gpa % pageSize)
        fatal("Ept::markMmio requires a page-aligned address");
    for (std::uint64_t i = 0; i < npages; ++i)
        entries_[(gpa >> pageShift) + i] = Entry{0, EptPerms{}, true};
}

Ept::Result
Ept::translate(Gpa gpa, EptAccess access) const
{
    auto it = entries_.find(gpa >> pageShift);
    Result r;
    r.levelsWalked = 4;
    if (it == entries_.end()) {
        r.kind = Result::Kind::Violation;
        return r;
    }
    if (it->second.mmio) {
        r.kind = Result::Kind::Misconfig;
        return r;
    }
    const EptPerms &perms = it->second.perms;
    bool allowed = (access == EptAccess::Read && perms.read) ||
                   (access == EptAccess::Write && perms.write) ||
                   (access == EptAccess::Exec && perms.exec);
    if (!allowed) {
        r.kind = Result::Kind::Violation;
        return r;
    }
    r.kind = Result::Kind::Ok;
    r.hpa = it->second.hpa + (gpa & (pageSize - 1));
    return r;
}

void
Ept::clear()
{
    entries_.clear();
}

} // namespace svtsim
