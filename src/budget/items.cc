#include "budget/items.h"

#include <algorithm>
#include <map>
#include <set>

namespace echo::budget {

ItemSet
enumerateItems(const std::vector<Val> &fetches,
               const pass::PassConfig &config)
{
    ItemSet set;
    set.config = config;
    set.feature_maps = pass::findFeatureMaps(fetches);
    set.candidates =
        pass::enumerateCandidates(set.feature_maps, fetches, config);

    // Ascending time step (step -1 values — outside the recurrence,
    // e.g. the once-per-sentence key projection — first), then target
    // node id for determinism.
    std::sort(set.candidates.begin(), set.candidates.end(),
              [](const pass::Candidate &a, const pass::Candidate &b) {
                  const Node *na = a.target.val.node;
                  const Node *nb = b.target.val.node;
                  if (na->time_step != nb->time_step)
                      return na->time_step < nb->time_step;
                  return na->id < nb->id;
              });
    return set;
}

namespace {

/** Candidates coupled by a shared stash value, evaluated as one
 *  acceptance unit.  A family's first member alone is often
 *  net-negative (it pays the full shared stash — e.g. every decoder
 *  step's attention region stashes the same projected-keys tensor),
 *  while the family jointly is strongly positive; a one-at-a-time
 *  marginal greedy can never start such a family.  Jointly-negative
 *  families (the chained LSTM cell regions, whose union stashes every
 *  step's GEMM pre-activations) evaluate negative as a unit and stay
 *  rejected. */
std::vector<std::vector<int>>
stashFamilies(const std::vector<pass::RegionEffect> &effects)
{
    std::map<std::pair<int64_t, int>, std::vector<int>> by_val;
    for (size_t i = 0; i < effects.size(); ++i)
        for (const Val &v : effects[i].stash)
            by_val[{v.node->id, v.index}].push_back(static_cast<int>(i));
    std::vector<std::vector<int>> families;
    std::set<std::vector<int>> seen;
    for (auto &[key, members] : by_val) {
        std::sort(members.begin(), members.end());
        members.erase(std::unique(members.begin(), members.end()),
                      members.end());
        if (members.size() >= 2 && seen.insert(members).second)
            families.push_back(members);
    }
    return families;
}

} // namespace

pass::Selection
maxReductionSet(const ItemSet &set)
{
    std::vector<pass::RegionEffect> effects;
    effects.reserve(set.candidates.size());
    for (const pass::Candidate &cand : set.candidates)
        effects.push_back(pass::regionEffect(cand, set.config));
    const std::vector<std::vector<int>> families = stashFamilies(effects);

    pass::JointCost jc(set.feature_maps);
    std::vector<bool> taken(set.candidates.size(), false);
    std::vector<int> remainder;
    for (;;) {
        int best = -1;
        const std::vector<int> *best_family = nullptr;
        int64_t best_gain = 0;
        for (size_t i = 0; i < effects.size(); ++i) {
            if (taken[i])
                continue;
            const int64_t gain = jc.preview(effects[i]).netSavings() -
                                 jc.cost().netSavings();
            if (gain > best_gain) {
                best = static_cast<int>(i);
                best_family = nullptr;
                best_gain = gain;
            }
        }
        for (const std::vector<int> &family : families) {
            remainder.clear();
            for (int i : family)
                if (!taken[static_cast<size_t>(i)])
                    remainder.push_back(i);
            if (remainder.size() < 2)
                continue;
            pass::JointCost trial = jc;
            for (int i : remainder)
                trial.add(i, effects[static_cast<size_t>(i)]);
            const int64_t gain =
                trial.cost().netSavings() - jc.cost().netSavings();
            if (gain > best_gain) {
                best = -1;
                best_family = &family;
                best_gain = gain;
            }
        }
        if (best >= 0) {
            jc.add(best, effects[static_cast<size_t>(best)]);
            taken[static_cast<size_t>(best)] = true;
        } else if (best_family != nullptr) {
            for (int i : *best_family) {
                if (taken[static_cast<size_t>(i)])
                    continue;
                jc.add(i, effects[static_cast<size_t>(i)]);
                taken[static_cast<size_t>(i)] = true;
            }
        } else {
            break;
        }
    }
    pass::Selection sel;
    sel.chosen = jc.chosen();
    std::sort(sel.chosen.begin(), sel.chosen.end());
    sel.cost = jc.cost();
    return sel;
}

} // namespace echo::budget
