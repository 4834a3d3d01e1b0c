#include "mining/evidence.h"

namespace sofya {

bool EvidenceSet::Add(const PairEvidence& evidence) {
  const uint64_t key = (uint64_t{evidence.x} << 32) | evidence.y;
  if (!seen_.insert(key).second) return false;
  evidence_.push_back(evidence);
  if (evidence.confirmed) ++support_;
  if (evidence.x_has_r) ++pca_body_;
  return true;
}

}  // namespace sofya
