#include "constraint/canonical.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "constraint/simplify.h"

namespace mmv {

namespace {

// Canonical order of one conjunction: its literals and not-blocks (index
// space: literals first, then blocks) stably sorted by their
// variable-blind encodings, plus the same order for each nested block.
struct MemberOrder {
  std::vector<uint32_t> order;
  std::vector<MemberOrder> blocks;  ///< one per not-block, declaration order
};

// The one canonical encoder. Constants are written exactly — ints in
// decimal, doubles as their raw bits, strings length-prefixed — and every
// token is self-delimiting, so distinct inputs encode distinctly: two
// atoms colliding on one key would be deduplicated as one. Variables are
// renamed by first appearance; a blind encoder writes every variable as
// the same token instead, which gives the ordering key of the members.
class Encoder {
 public:
  Encoder(std::string* out, bool blind) : out_(out), blind_(blind) {}

  // Members in \p order's sequence, blocks recursively.
  void Sorted(const std::vector<Primitive>& prims,
              const std::vector<NotBlock>& blocks, const MemberOrder& order) {
    for (uint32_t i : order.order) {
      if (i < prims.size()) {
        Append(prims[i]);
        out_->push_back('&');
        continue;
      }
      size_t b = i - prims.size();
      out_->append("N(");
      Sorted(blocks[b].prims, blocks[b].inner, order.blocks[b]);
      out_->append(")&");
    }
  }

  // The constrained atom pred(head) <- c: the head first, so head
  // variables take the first canonical numbers.
  void Atom(Symbol pred, const TermVec& head, const Constraint& c) {
    AppendRaw(pred.name());
    if (c.is_false()) {
      out_->append("false");
      return;
    }
    out_->push_back('(');
    for (const Term& t : head) Append(t);
    out_->push_back(')');
    Sorted(c.prims(), c.nots(), Order(c.prims(), c.nots(), nullptr));
  }

  // Orders one conjunction's members by their variable-blind encodings,
  // each computed once. When \p sorted_key is set, appends the
  // conjunction's own blind encoding (its members' in sorted order) to it.
  static MemberOrder Order(const std::vector<Primitive>& prims,
                           const std::vector<NotBlock>& blocks,
                           std::string* sorted_key) {
    MemberOrder m;
    size_t n = prims.size() + blocks.size();
    std::string keys;
    std::vector<size_t> ends;
    ends.reserve(n);
    Encoder blind(&keys, /*blind=*/true);
    for (const Primitive& p : prims) {
      blind.Append(p);
      ends.push_back(keys.size());
    }
    m.blocks.reserve(blocks.size());
    for (const NotBlock& b : blocks) {
      keys.append("N(");
      m.blocks.push_back(Order(b.prims, b.inner, &keys));
      keys.push_back(')');
      ends.push_back(keys.size());
    }
    auto key = [&](uint32_t i) {
      size_t begin = i == 0 ? 0 : ends[i - 1];
      return std::string_view(keys).substr(begin, ends[i] - begin);
    };
    m.order.resize(n);
    std::iota(m.order.begin(), m.order.end(), 0u);
    std::stable_sort(m.order.begin(), m.order.end(),
                     [&](uint32_t a, uint32_t b) { return key(a) < key(b); });
    if (sorted_key != nullptr) {
      for (uint32_t i : m.order) {
        sorted_key->append(key(i));
        sorted_key->push_back('&');
      }
    }
    return m;
  }

 private:
  void Append(const Primitive& p) {
    switch (p.kind) {
      case PrimKind::kEq:
        out_->push_back('=');
        Append(p.lhs);
        Append(p.rhs);
        break;
      case PrimKind::kNeq:
        out_->push_back('!');
        Append(p.lhs);
        Append(p.rhs);
        break;
      case PrimKind::kCmp:
        out_->push_back('c');
        out_->push_back(static_cast<char>('0' + static_cast<int>(p.op)));
        Append(p.lhs);
        Append(p.rhs);
        break;
      case PrimKind::kIn:
      case PrimKind::kNotIn:
        out_->push_back(p.kind == PrimKind::kIn ? 'I' : 'O');
        Append(p.lhs);
        AppendRaw(p.call.domain);
        AppendRaw(p.call.function);
        for (const Term& t : p.call.args) Append(t);
        break;
    }
  }

  void Append(const Term& t) {
    if (t.is_const()) {
      Append(t.constant());
      return;
    }
    out_->push_back('v');
    if (blind_) return;
    VarId v = t.var();
    auto it = var_map_.find(v);
    if (it == var_map_.end()) {
      it = var_map_.emplace(v, static_cast<VarId>(var_map_.size())).first;
    }
    AppendInt(static_cast<uint64_t>(it->second));
  }

  void Append(const Value& v) {
    switch (v.kind()) {
      case ValueKind::kNull:
        out_->push_back('n');
        break;
      case ValueKind::kBool:
        out_->push_back(v.as_bool() ? 'T' : 'F');
        break;
      case ValueKind::kInt:
        out_->push_back('i');
        AppendInt(static_cast<uint64_t>(v.as_int()));
        break;
      case ValueKind::kDouble: {
        // Raw bits: exact, unlike any decimal rendering.
        out_->push_back('d');
        double d = v.as_double();
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d), "");
        std::memcpy(&bits, &d, sizeof(bits));
        AppendInt(bits);
        break;
      }
      case ValueKind::kString:
        out_->push_back('s');
        AppendRaw(v.as_string());
        break;
      case ValueKind::kList:
        out_->push_back('[');
        for (const Value& e : v.as_list()) Append(e);
        out_->push_back(']');
        break;
    }
  }

  // Length-prefixed so adjacent strings cannot merge ambiguously.
  void AppendRaw(const std::string& s) {
    AppendInt(s.size());
    out_->push_back(':');
    out_->append(s);
  }

  void AppendInt(uint64_t u) {
    char buf[20];
    char* p = buf + sizeof(buf);
    do {
      *--p = static_cast<char>('0' + (u % 10));
      u /= 10;
    } while (u != 0);
    out_->append(p, static_cast<size_t>(buf + sizeof(buf) - p));
    out_->push_back(';');
  }

  std::string* out_;
  const bool blind_;
  std::unordered_map<VarId, VarId> var_map_;
};

// 64-bit finalization avalanche (MurmurHash3's fmix64): flips every output
// bit with probability ~1/2 per input bit flipped.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Two STRUCTURALLY different passes over the encoding. The previous
// scheme ran two FNV-1a streams that differed only in seed; FNV-1a's
// multiply is odd, so bit 0 of its state is seed-parity XOR the parity of
// the input bytes' low bits — identical in both streams for every input,
// and higher low-order bits correlate similarly. The effective collision
// margin was well below the advertised 2^-128. Here the halves disagree in
// per-byte structure (xor-multiply vs add-multiply-rotate, different odd
// constants) and each is finalized through a full-avalanche mix with a
// length tweak, so no output bit of one half is a function of the same
// input bits as any bit of the other.
CanonicalKey FingerprintOf(const std::string& encoding) {
  uint64_t lo = 14695981039346656037ULL;  // FNV-1a offset basis / prime
  uint64_t hi = 0x9ae16a3b2f90404fULL;
  for (unsigned char ch : encoding) {
    lo = (lo ^ ch) * 1099511628211ULL;
    hi = (hi + ch) * 0x9e3779b97f4a7c15ULL;
    hi = (hi << 29) | (hi >> 35);
  }
  uint64_t len = encoding.size();
  CanonicalKey key;
  key.lo = Mix64(lo ^ (len * 0xa0761d6478bd642fULL));
  key.hi = Mix64(hi ^ len ^ 0x8ebc6af09c88c6e3ULL);
  return key;
}

// The encoding of pred(args) <- c into *out, simplifying first
// unless the caller already did.
void EncodeAtom(Symbol pred, const TermVec& args, const Constraint& c,
                bool assume_simplified, std::string* out) {
  Encoder encoder(out, /*blind=*/false);
  if (assume_simplified) {
    encoder.Atom(pred, args, c);
    return;
  }
  SimplifiedAtom s = SimplifyAtom(args, c);
  encoder.Atom(pred, s.head, s.constraint);
}

}  // namespace

CanonicalKey CanonicalAtomKey(Symbol pred, const TermVec& args,
                              const Constraint& c, bool assume_simplified,
                              std::string* scratch) {
  scratch->clear();
  EncodeAtom(pred, args, c, assume_simplified, scratch);
  return FingerprintOf(*scratch);
}

std::string CanonicalAtomString(Symbol pred, const TermVec& args,
                                const Constraint& c) {
  std::string out;
  EncodeAtom(pred, args, c, /*assume_simplified=*/false, &out);
  return out;
}

}  // namespace mmv
