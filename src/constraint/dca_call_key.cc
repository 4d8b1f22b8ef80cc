#include "constraint/dca_call_key.h"

#include <cstdint>
#include <cstring>
#include <functional>

#include "common/hash.h"

namespace mmv {

namespace {

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

// Same kind, same payload at that kind.
bool SameArg(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case ValueKind::kNull:
      return true;
    case ValueKind::kBool:
      return a.as_bool() == b.as_bool();
    case ValueKind::kInt:
      return a.as_int() == b.as_int();
    case ValueKind::kDouble:
      return DoubleBits(a.as_double()) == DoubleBits(b.as_double());
    case ValueKind::kString:
      return a.as_string() == b.as_string();
    case ValueKind::kList: {
      const ValueList& la = a.as_list();
      const ValueList& lb = b.as_list();
      if (la.size() != lb.size()) return false;
      for (size_t i = 0; i < la.size(); ++i) {
        if (!SameArg(la[i], lb[i])) return false;
      }
      return true;
    }
  }
  return false;
}

size_t ArgHash(const Value& v) {
  size_t h = static_cast<size_t>(v.kind()) * 0x9e3779b97f4a7c15ULL;
  switch (v.kind()) {
    case ValueKind::kNull:
      return h;
    case ValueKind::kBool:
      return HashCombine(h, v.as_bool() ? 1 : 0);
    case ValueKind::kInt:
      return HashCombine(h, std::hash<int64_t>{}(v.as_int()));
    case ValueKind::kDouble:
      return HashCombine(h, std::hash<uint64_t>{}(DoubleBits(v.as_double())));
    case ValueKind::kString:
      return HashCombineString(h, v.as_string());
    case ValueKind::kList:
      for (const Value& e : v.as_list()) h = HashCombine(h, ArgHash(e));
      return h;
  }
  return h;
}

}  // namespace

bool DcaCallKey::operator==(const DcaCallKey& other) const {
  if (domain != other.domain || function != other.function ||
      args.size() != other.args.size()) {
    return false;
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (!SameArg(args[i], other.args[i])) return false;
  }
  return true;
}

size_t DcaCallKey::Hash::operator()(const DcaCallKey& key) const {
  size_t h = HashCombineString(std::hash<std::string>{}(key.domain),
                               key.function);
  for (const Value& v : key.args) h = HashCombine(h, ArgHash(v));
  return h;
}

}  // namespace mmv
