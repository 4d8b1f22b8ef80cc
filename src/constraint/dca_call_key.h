// DcaCallKey: the identity of one ground domain call d:f(v1, ..., vk), as
// the memos over domain-call results key it (the solver's call memo,
// RejectCache's call ids and DomainManager's historical call cache).
//
// Equality is exact and structural: same domain, same function, and
// argument lists equal position by position, where two arguments are
// equal only when they have the same ValueKind and the same payload at
// that kind (doubles bit for bit, lists recursively). It is finer than
// Value::operator== — 2 and 2.0 are different calls, as are 0.0 and -0.0
// — so a memo keyed by it never answers one call with another call's
// result, whatever a domain makes of its arguments.

#ifndef MMV_CONSTRAINT_DCA_CALL_KEY_H_
#define MMV_CONSTRAINT_DCA_CALL_KEY_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/value.h"

namespace mmv {

/// \brief Exact structural key of a ground domain call.
struct DcaCallKey {
  std::string domain;
  std::string function;
  std::vector<Value> args;  ///< ground argument values

  /// \brief Exact equality (see the file comment).
  bool operator==(const DcaCallKey& other) const;
  bool operator!=(const DcaCallKey& other) const { return !(*this == other); }

  /// \brief Hash consistent with operator==.
  struct Hash {
    size_t operator()(const DcaCallKey& key) const;
  };
};

}  // namespace mmv

#endif  // MMV_CONSTRAINT_DCA_CALL_KEY_H_
