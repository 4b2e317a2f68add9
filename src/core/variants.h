// Pluggable protocol variants — the factory seam between the stack and the
// concrete broadcast/consensus algorithms.
//
// The paper fixes one algorithm per layer (Bracha reliable broadcast §2.2,
// Bracha randomized binary consensus §2.4). The stack's value as a
// scenario engine comes from swapping algorithms under identical safety
// oracles and faultloads, so each swappable layer is selected through a
// small abstract interface instead of a hard-coded concrete class:
//
//   * `RbAlgorithm` — one broadcast instance by one origin (bcast /
//     deliver-once semantics). Variants: Bracha (default, 3 steps,
//     t < n/3) and Imbs–Raynal (2 steps, t < n/5).
//   * `BcAlgorithm` — one binary consensus instance (propose / decide-once
//     semantics). Variants: Bracha (default, RB-backed 3-step rounds) and
//     Crain (MMR-style BV-broadcast rounds, direct messages, common coin).
//
// Selection is per-stack configuration (`StackConfig::variants`): every
// correct process of a group must configure the same variants, exactly
// like the other wire-format switches. Variants keep the paper's
// InstanceId path encodings but use DISJOINT message-tag spaces (see
// docs/PROTOCOLS.md "Variant negotiation & tag encodings"), so a frame
// from a mis-configured or Byzantine peer running the wrong variant is a
// counted drop, never protocol confusion.
//
// Construction goes through `make_rb` / `make_bc` only — the concrete
// constructors are private. Adding variant n+1 is: implement the
// interface, add an enum value + name, extend the factory switch and
// `validate_variants`, and add the per-variant oracle battery + explorer
// smoke (recipe in DESIGN.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "common/buffer.h"
#include "core/instance_id.h"
#include "core/protocol.h"
#include "core/types.h"

namespace ritas {

class ProtocolStack;

/// How the binary consensus obtains its round coins (§2.4 / related work).
/// kLocal is the paper's Ben-Or-style private coin; kDealt derives one
/// common coin per (instance, round) from the dealer's group key — the
/// engineering equivalent of Rabin's predistributed coin shares, giving
/// expected-constant-round termination on split proposals.
enum class CoinMode : std::uint8_t { kLocal = 0, kDealt = 1 };

enum class RbVariant : std::uint8_t {
  kBracha = 0,      // paper §2.2: INIT/ECHO/READY, 3 steps, t < n/3
  kImbsRaynal = 1,  // Imbs–Raynal: INIT/WITNESS, 2 steps, t < n/5
};

enum class BcVariant : std::uint8_t {
  kBracha = 0,  // paper §2.4: RB-backed 3-step rounds, t < n/3
  kCrain = 1,   // MMR-style BV-broadcast rounds; always the dealt coin
};

/// The coin a binary consensus `bc` tosses under `coin_mode`: the dealt
/// common coin for Crain, whose round rule adopts the coin value, so
/// agreement holds only if every process sees the SAME coin; otherwise
/// the coin `coin_mode` asks for.
CoinMode tossed_coin(BcVariant bc, CoinMode coin_mode);

/// Per-stack algorithm selection. The default value is the paper's stack;
/// a default-constructed config is bit-identical to the pre-variant wire
/// format and traces.
struct VariantConfig {
  RbVariant rb = RbVariant::kBracha;
  BcVariant bc = BcVariant::kBracha;

  friend bool operator==(const VariantConfig&, const VariantConfig&) = default;
};

/// Stable lowercase names used by the C API docs, the schedule explorer's
/// JSON artifacts and the bench matrix ("bracha", "imbs-raynal", "crain").
const char* rb_variant_name(RbVariant v);
const char* bc_variant_name(BcVariant v);
std::optional<RbVariant> rb_variant_from_name(std::string_view name);
std::optional<BcVariant> bc_variant_from_name(std::string_view name);

/// Rejects incompatible variant selections with std::invalid_argument
/// carrying an actionable message: Imbs–Raynal RB needs n >= 6 — its
/// witness quorums assume n > 5t with t = (n-1)/5 >= 1; below that the
/// variant is unsound. Called from the ProtocolStack constructor (config
/// time, never on the packet path) and mirrored as RITAS_EINVAL through
/// the C API.
void validate_variants(const VariantConfig& v, std::uint32_t n);

/// One reliable-broadcast instance: one broadcast by `origin`, delivered
/// at most once. All variants provide agreement + integrity + totality for
/// t below the variant's resilience bound.
class RbAlgorithm : public Protocol {
 public:
  /// The delivered Slice aliases the arrival frame that first carried the
  /// winning payload — zero-copy from the wire to the consumer, which may
  /// keep the Slice (pinning that frame) as long as it needs.
  using DeliverFn = std::function<void(Slice payload)>;

  /// Starts the broadcast. Precondition: this process is the origin and
  /// bcast was not called before.
  virtual void bcast(Slice payload) = 0;

  virtual ProcessId origin() const = 0;
  virtual bool delivered() const = 0;

 protected:
  using Protocol::Protocol;
};

/// One binary consensus instance: every process proposes a bit, all
/// correct processes decide the same bit (agreement), unanimous proposals
/// decide that value (validity).
class BcAlgorithm : public Protocol {
 public:
  using DecideFn = std::function<void(bool)>;

  /// Proposes a bit and activates the state machine. Messages that arrived
  /// before activation were already tallied; progress resumes immediately.
  virtual void propose(bool v) = 0;

  virtual bool active() const = 0;
  virtual bool decided() const = 0;
  virtual bool decision() const = 0;
  /// Round in which the decision was reached (1 = one round, the common
  /// case the paper reports). Valid only after decided().
  virtual std::uint32_t decided_round() const = 0;

 protected:
  using Protocol::Protocol;
};

/// Factory seam: constructs the RB / BC variant selected by
/// `stack.config().variants`. The ONLY way to construct the concrete
/// algorithm classes — their constructors are private.
std::unique_ptr<RbAlgorithm> make_rb(ProtocolStack& stack, Protocol* parent,
                                     InstanceId id, ProcessId origin,
                                     Attribution attr,
                                     RbAlgorithm::DeliverFn deliver);
std::unique_ptr<BcAlgorithm> make_bc(ProtocolStack& stack, Protocol* parent,
                                     InstanceId id, Attribution attr,
                                     BcAlgorithm::DecideFn decide);

/// The per-(instance, round) coin both BC variants share, of the kind
/// tossed_coin picks. kDealt derives a common bit from the dealer's group
/// key via HMAC over (id, round) (the ProtocolStack constructor refuses a
/// keychain without one); kLocal is the stack's seeded private coin. One
/// helper so the variants' coins are computed identically — the default
/// Bracha path stays bit-identical.
bool toss_round_coin(ProtocolStack& stack, const InstanceId& id,
                     std::uint32_t round);

}  // namespace ritas
