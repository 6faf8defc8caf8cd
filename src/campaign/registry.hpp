// The campaign registry: one declarative CampaignSpec per paper artifact.
//
// Every table, figure and ablation the repo reproduces is registered here —
// Tables I-III, the MTTF equations, the SPF Monte Carlo, the 45 nm
// area/power/critical-path synthesis, the SPLASH-2/PARSEC latency figures,
// and the load/VC/environment sweeps. The `rnoc_campaign` CLI drives the
// registry end to end; `run_registry_inline` runs one entry in-process.
#pragma once

#include <string>
#include <vector>

#include "campaign/engine.hpp"

namespace rnoc::campaign {

/// All registered campaigns, in stable presentation order.
const std::vector<CampaignSpec>& campaign_registry();

/// Lookup by name; null when unknown.
const CampaignSpec* find_campaign(const std::string& name);

/// Runs a registered campaign to completion in-process (no checkpointing)
/// and returns its result. Throws on unknown names.
CampaignResult run_registry_inline(const std::string& name,
                                   bool smoke = false);

}  // namespace rnoc::campaign
