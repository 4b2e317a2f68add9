#include "core/variants.h"

#include <stdexcept>
#include <string>

#include "core/binary_consensus.h"
#include "core/crain_consensus.h"
#include "core/imbs_raynal_broadcast.h"
#include "core/reliable_broadcast.h"
#include "core/stack.h"
#include "crypto/hmac.h"

namespace ritas {

const char* rb_variant_name(RbVariant v) {
  switch (v) {
    case RbVariant::kBracha: return "bracha";
    case RbVariant::kImbsRaynal: return "imbs-raynal";
  }
  return "?";
}

const char* bc_variant_name(BcVariant v) {
  switch (v) {
    case BcVariant::kBracha: return "bracha";
    case BcVariant::kCrain: return "crain";
  }
  return "?";
}

std::optional<RbVariant> rb_variant_from_name(std::string_view name) {
  if (name == "bracha") return RbVariant::kBracha;
  if (name == "imbs-raynal") return RbVariant::kImbsRaynal;
  return std::nullopt;
}

std::optional<BcVariant> bc_variant_from_name(std::string_view name) {
  if (name == "bracha") return BcVariant::kBracha;
  if (name == "crain") return BcVariant::kCrain;
  return std::nullopt;
}

void validate_variants(const VariantConfig& v, std::uint32_t n,
                       CoinMode coin_mode) {
  if (v.rb == RbVariant::kImbsRaynal && n < 6) {
    throw std::invalid_argument(
        "variants.rb = imbs-raynal requires n >= 6: the 2-step broadcast "
        "tolerates only t = (n-1)/5 Byzantine faults and its witness "
        "quorums are unsound with n <= 5t (got n = " + std::to_string(n) +
        "); use the bracha variant for smaller groups");
  }
  if (v.bc == BcVariant::kCrain && coin_mode != CoinMode::kDealt) {
    throw std::invalid_argument(
        "variants.bc = crain requires coin_mode = dealt: the round rule "
        "adopts the coin value, so agreement holds only if every process "
        "sees the SAME coin — a private (local) coin can split the "
        "estimates for good");
  }
}

std::unique_ptr<RbAlgorithm> make_rb(ProtocolStack& stack, Protocol* parent,
                                     InstanceId id, ProcessId origin,
                                     Attribution attr,
                                     RbAlgorithm::DeliverFn deliver) {
  switch (stack.config().variants.rb) {
    case RbVariant::kImbsRaynal:
      return std::unique_ptr<RbAlgorithm>(new ImbsRaynalBroadcast(
          stack, parent, std::move(id), origin, attr, std::move(deliver)));
    case RbVariant::kBracha:
      break;
  }
  return std::unique_ptr<RbAlgorithm>(new ReliableBroadcast(
      stack, parent, std::move(id), origin, attr, std::move(deliver)));
}

std::unique_ptr<BcAlgorithm> make_bc(ProtocolStack& stack, Protocol* parent,
                                     InstanceId id, Attribution attr,
                                     BcAlgorithm::DecideFn decide) {
  switch (stack.config().variants.bc) {
    case BcVariant::kCrain:
      return std::unique_ptr<BcAlgorithm>(new CrainConsensus(
          stack, parent, std::move(id), attr, std::move(decide)));
    case BcVariant::kBracha:
      break;
  }
  return std::unique_ptr<BcAlgorithm>(new BinaryConsensus(
      stack, parent, std::move(id), attr, std::move(decide)));
}

bool toss_round_coin(ProtocolStack& stack, const InstanceId& id,
                     std::uint32_t round) {
  if (stack.config().coin_mode == CoinMode::kDealt &&
      !stack.keys().group_key().empty()) {
    // Rabin-style dealt coin: every process derives the same bit for
    // (instance, round) from the dealer's group key.
    Writer w;
    id.encode(w);
    w.u32(round);
    const auto d = stack.keys().group_mac_key().mac(w.data());
    return (d[0] & 1) != 0;
  }
  return stack.rng().coin();  // Ben-Or-style private coin (the paper's)
}

}  // namespace ritas
