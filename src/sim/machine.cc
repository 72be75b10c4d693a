#include "sim/machine.hh"

#include "common/log.hh"
#include "defense/registry.hh"

namespace ctamem::sim {

using defense::DefenseKind;

namespace {

/** Copy the per-defense tunables out of a machine config. */
defense::DefenseParams
defenseParams(const MachineConfig &config)
{
    defense::DefenseParams params;
    params.seed = config.seed;
    params.ptpBytes = config.ptpBytes;
    params.ctaMultiLevelZones = config.ctaMultiLevelZones;
    params.ctaScreenPageSize = config.ctaScreenPageSize;
    params.refreshBoostFactor = config.refreshBoostFactor;
    params.paraProbability = config.paraProbability;
    params.anvilThreshold = config.anvilThreshold;
    params.softTrrThreshold = config.softTrrThreshold;
    params.softTrrTracked = config.softTrrTracked;
    params.trrSamplers = config.trrSamplers;
    params.trrWindow = config.trrWindow;
    return params;
}

} // namespace

Machine::Machine(const MachineConfig &config) : config_(config)
{
    const defense::DefenseSpec *spec =
        defense::Registry::instance().find(config.defense);
    if (!spec) {
        fatal("machine: defense kind ",
              static_cast<int>(config.defense),
              " has no registry entry");
    }

    kernel::KernelConfig kconfig;
    kconfig.dram.capacity = config.memBytes;
    kconfig.dram.rowBytes = config.rowBytes;
    kconfig.dram.banks = config.banks;
    kconfig.dram.cellMap =
        dram::CellTypeMap::alternating(config.cellPeriod);
    kconfig.dram.errors.pf = config.pf;
    kconfig.dram.seed = config.seed;

    const defense::DefenseParams params = defenseParams(config);
    if (spec->configureKernel)
        spec->configureKernel(params, kconfig);
    kconfig.arch = &paging::resolveArch(config.arch, config.granule);

    kernel_ = std::make_unique<kernel::Kernel>(kconfig);

    if (spec->makeObserver)
        observer_ = spec->makeObserver(params);

    engine_ = std::make_unique<dram::RowHammerEngine>(
        kernel_->dram(), observer_.get());
    engine_->setRecordEvents(config.recordFlipEvents);
}

defense::AnvilObserver *
Machine::anvil()
{
    if (config_.defense != DefenseKind::Anvil)
        return nullptr;
    return static_cast<defense::AnvilObserver *>(observer_.get());
}

attack::AttackResult
Machine::runAttack(AttackKind kind)
{
    const attack::AttackSpec *spec =
        attack::Registry::instance().find(kind);
    if (!spec) {
        fatal("machine: attack kind ", static_cast<int>(kind),
              " has no registry entry");
    }
    attack::AttackParams params;
    params.seed = config_.seed;
    params.defense = config_.defense;
    params.defenseParams = defenseParams(config_);
    params.fuzz = config_.fuzz;
    return spec->run(*kernel_, *engine_, params);
}

} // namespace ctamem::sim
