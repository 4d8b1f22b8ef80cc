// Value: the universal data object flowing between domains, the relational
// engine and the constraint layer (the paper's Sigma, the set of data-objects
// a domain manipulates, Section 2.1).

#ifndef MMV_COMMON_VALUE_H_
#define MMV_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace mmv {

class Value;

/// \brief A composite value: an ordered record of fields, used for tuples
/// returned by relational domain calls (e.g. `A.streetnum` field access).
using ValueList = std::vector<Value>;

/// \brief Runtime type tag of a Value.
enum class ValueKind : uint8_t {
  kNull = 0,
  kBool,
  kInt,
  kDouble,
  kString,
  kList,
};

/// \brief Name of a ValueKind (e.g. "int").
const char* ValueKindName(ValueKind k);

/// \brief Dynamically typed value: null, bool, int64, double, string, or an
/// ordered list of values (record / tuple).
///
/// Ordering and equality are total across kinds (kind tag first, then
/// payload) so values can be used as map/set keys. Numeric comparisons
/// between kInt and kDouble compare numerically.
class Value {
 public:
  Value() : rep_(std::monostate{}) {}
  Value(bool b) : rep_(b) {}                      // NOLINT(runtime/explicit)
  Value(int64_t i) : rep_(i) {}                   // NOLINT(runtime/explicit)
  Value(int i) : rep_(static_cast<int64_t>(i)) {} // NOLINT(runtime/explicit)
  Value(double d) : rep_(d) {}                    // NOLINT(runtime/explicit)
  Value(std::string s) : rep_(std::move(s)) {}    // NOLINT(runtime/explicit)
  Value(const char* s) : rep_(std::string(s)) {}  // NOLINT(runtime/explicit)
  Value(ValueList l) : rep_(std::move(l)) {}      // NOLINT(runtime/explicit)

  /// \brief The runtime kind tag.
  ValueKind kind() const {
    return static_cast<ValueKind>(rep_.index());
  }

  bool is_null() const { return kind() == ValueKind::kNull; }
  bool is_bool() const { return kind() == ValueKind::kBool; }
  bool is_int() const { return kind() == ValueKind::kInt; }
  bool is_double() const { return kind() == ValueKind::kDouble; }
  bool is_string() const { return kind() == ValueKind::kString; }
  bool is_list() const { return kind() == ValueKind::kList; }

  /// \brief True for kInt or kDouble.
  bool is_numeric() const { return is_int() || is_double(); }

  bool as_bool() const { return std::get<bool>(rep_); }
  int64_t as_int() const { return std::get<int64_t>(rep_); }
  double as_double() const { return std::get<double>(rep_); }
  const std::string& as_string() const { return std::get<std::string>(rep_); }
  const ValueList& as_list() const { return std::get<ValueList>(rep_); }
  ValueList& as_list() { return std::get<ValueList>(rep_); }

  /// \brief Numeric payload widened to double; requires is_numeric().
  double numeric() const {
    return is_int() ? static_cast<double>(as_int()) : as_double();
  }

  /// \brief Structural equality (numeric kinds compare numerically).
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// \brief Total order: kind tag first (with kInt/kDouble merged into a
  /// numeric class), then payload.
  bool operator<(const Value& other) const;

  /// \brief Stable hash consistent with operator== (numeric kinds hash by
  /// double value).
  size_t Hash() const;

  /// \brief Render for debugging / printing ("foo", 42, 3.5, [1, "a"]).
  std::string ToString() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string, ValueList>
      rep_;
};

/// \brief Hash functor for unordered containers keyed by Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// \brief The text the parser reads back to an equal Value: finite doubles
/// as their shortest round-trip text, strings between double quotes with
/// backslash, double quote and newline escaped (\\\\, \\", \\n).
std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace mmv

#endif  // MMV_COMMON_VALUE_H_
