// Aggregate "multi-signature" over a common message.
//
// Models the BLS multi-signature the paper uses for echo-certificates: the
// wire format is one 32-byte aggregate plus a signer bit-vector, reproducing
// the O(κ + n) certificate size that matters for the bandwidth model.
// The aggregate is the XOR of the individual HMAC authenticators, which is
// verifiable by any holder of the keychain and (like BLS aggregation)
// rejects certificates that claim signers who did not sign.

#ifndef CLANDAG_CRYPTO_MULTISIG_H_
#define CLANDAG_CRYPTO_MULTISIG_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "crypto/keychain.h"

namespace clandag {

// Compact signer set as a bit-vector over node ids.
//
// Bitmaps up to kInlineBytes (n <= 256) live inline — no heap allocation on
// construction or parse, which matters because one bitmap is built per vote
// tracker and parsed per certificate on the consensus hot path. Larger
// systems spill to a heap vector transparently.
class SignerBitmap {
 public:
  static constexpr size_t kInlineBytes = 32;

  SignerBitmap() = default;
  explicit SignerBitmap(uint32_t num_parties) : num_parties_(num_parties) {
    if (ByteLen() > kInlineBytes) {
      overflow_.assign(ByteLen(), 0);
    }
  }

  void Set(NodeId id);
  bool Test(NodeId id) const;
  uint32_t Count() const;
  uint32_t num_parties() const { return num_parties_; }
  std::vector<NodeId> Ids() const;

  // Wire size in bytes (what enters the bandwidth model).
  size_t ByteSize() const { return 4 + ByteLen(); }

  void Serialize(Writer& w) const;
  static SignerBitmap Parse(Reader& r);

  friend bool operator==(const SignerBitmap& a, const SignerBitmap& b) {
    return a.num_parties_ == b.num_parties_ &&
           std::memcmp(a.bits(), b.bits(), a.ByteLen()) == 0;
  }

 private:
  size_t ByteLen() const { return (static_cast<size_t>(num_parties_) + 7) / 8; }
  uint8_t* bits() { return ByteLen() <= kInlineBytes ? inline_.data() : overflow_.data(); }
  const uint8_t* bits() const {
    return ByteLen() <= kInlineBytes ? inline_.data() : overflow_.data();
  }

  uint32_t num_parties_ = 0;
  std::array<uint8_t, kInlineBytes> inline_{};
  std::vector<uint8_t> overflow_;  // Used only when ByteLen() > kInlineBytes.
};

// An aggregate signature over one message by the parties in `signers`.
class MultiSig {
 public:
  MultiSig() = default;
  // A certificate from an aggregate already folded (see Fold) over exactly
  // the parties in `signers`.
  MultiSig(const SignerBitmap& signers, const Digest& aggregate)
      : signers_(signers), aggregate_(aggregate) {}

  // Folds one authenticator into a running aggregate. XOR is commutative,
  // so parts may arrive in any order: folding votes as they land equals
  // Aggregate over the same votes in id order, byte for byte.
  static void Fold(Sha256::DigestBytes& aggregate, const Sha256::DigestBytes& part);

  // Aggregates individual signatures. `parts` must align with `signers.Ids()`.
  static MultiSig Aggregate(const SignerBitmap& signers, const std::vector<Signature>& parts);

  // Verifies the aggregate against the keychain, per the paper's optimization:
  // one aggregate check instead of per-signer checks.
  [[nodiscard]] bool Verify(const Keychain& keychain, const Bytes& message) const;

  const SignerBitmap& signers() const { return signers_; }
  uint32_t Count() const { return signers_.Count(); }
  size_t ByteSize() const { return Digest::kSize + signers_.ByteSize(); }

  void Serialize(Writer& w) const;
  static MultiSig Parse(Reader& r);

 private:
  SignerBitmap signers_;
  Digest aggregate_;
};

}  // namespace clandag

#endif  // CLANDAG_CRYPTO_MULTISIG_H_
