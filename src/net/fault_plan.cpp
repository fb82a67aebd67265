#include "net/fault_plan.h"

namespace bismark::net {

DeliveryOutcome FaultPlan::attempt(TimePoint when, Rng& rng) const {
  if (collector_down_.contains(when)) return DeliveryOutcome::kCollectorDown;
  if (config_.upload_loss_prob > 0.0 && rng.bernoulli(config_.upload_loss_prob)) {
    return DeliveryOutcome::kLostRequest;
  }
  if (config_.ack_loss_prob > 0.0 && rng.bernoulli(config_.ack_loss_prob)) {
    return DeliveryOutcome::kLostAck;
  }
  return DeliveryOutcome::kDelivered;
}

}  // namespace bismark::net
