#include "parser/view_io.h"

#include <sstream>

#include "common/strings.h"
#include "parser/parser.h"

namespace mmv {
namespace parser {

namespace {

void AppendAtomLine(std::ostringstream& os, const ViewAtom& a) {
  os << PrintAtom(a.pred, a.args, a.constraint, /*names=*/nullptr);
  if (a.constraint.is_true()) {
    os << " <- true";  // keep the "<-" anchor for the reader
  }
  os << " @ " << a.support.ToString() << " # " << a.depth << "\n";
}

}  // namespace

std::string SerializeView(const View& view) {
  std::ostringstream os;
  for (const ViewAtom& a : view.atoms()) AppendAtomLine(os, a);
  return os.str();
}

std::string SerializeImage(const SnapshotImage& image) {
  std::ostringstream os;
  image.ForEachAtom([&os](const ViewAtom& a) {
    AppendAtomLine(os, a);
    return true;
  });
  return os.str();
}

std::string SerializeAtoms(const std::vector<ViewAtom>& atoms) {
  std::ostringstream os;
  for (const ViewAtom& a : atoms) AppendAtomLine(os, a);
  return os.str();
}

namespace {

// Recursive-descent support parser over "<n, <...>, ...>".
class SupportParser {
 public:
  explicit SupportParser(std::string_view s) : s_(s) {}

  Result<Support> Parse() {
    MMV_ASSIGN_OR_RETURN(Support root, ParseOne());
    SkipSpace();
    if (pos_ != s_.size()) {
      return Status::ParseError("trailing characters after support at " +
                                Where());
    }
    return root;
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t')) ++pos_;
  }
  std::string Where() const { return "offset " + std::to_string(pos_); }
  Result<Support> ParseOne() {
    SkipSpace();
    if (pos_ >= s_.size() || s_[pos_] != '<') {
      return Status::ParseError("expected '<' in support at " + Where());
    }
    ++pos_;
    SkipSpace();
    // Clause number (possibly negative for external supports).
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    if (pos_ >= s_.size() || !isdigit(static_cast<unsigned char>(s_[pos_]))) {
      return Status::ParseError("expected clause number in support at " +
                                Where());
    }
    while (pos_ < s_.size() && isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    Result<int> num = ParseDecimal<int>(s_.substr(start, pos_ - start),
                                        "clause number in support");
    if (!num.ok()) {
      return Status::ParseError(num.status().message() + " at " + Where());
    }
    std::vector<Support> children;
    SkipSpace();
    while (pos_ < s_.size() && s_[pos_] == ',') {
      ++pos_;
      MMV_ASSIGN_OR_RETURN(Support child, ParseOne());
      children.push_back(std::move(child));
      SkipSpace();
    }
    if (pos_ >= s_.size() || s_[pos_] != '>') {
      return Status::ParseError("expected '>' in support at " + Where());
    }
    ++pos_;
    return Support(*num, std::move(children));
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

Result<Support> ParseSupport(std::string_view text) {
  return SupportParser(Trim(text)).Parse();
}

namespace {

// Prefixes a parse failure with the 1-based line number it occurred on —
// every malformed-input path of this module reports WHERE, so a corrupt
// multi-thousand-line view or burst file is debuggable.
Status AtLine(size_t line_no, const Status& error) {
  return Status(error.code(),
                "line " + std::to_string(line_no) + ": " + error.message());
}

}  // namespace

Result<std::vector<ParsedUpdate>> ParseBurst(std::string_view text,
                                             Program* program) {
  std::vector<ParsedUpdate> updates;
  size_t line_no = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++line_no;
    std::string_view line = Trim(raw);
    if (line.empty() || line[0] == '%') continue;

    bool is_delete;
    if (line.rfind("del ", 0) == 0) {
      is_delete = true;
    } else if (line.rfind("ins ", 0) == 0) {
      is_delete = false;
    } else {
      return AtLine(line_no,
                    Status::ParseError(
                        "burst line must start with 'del ' or 'ins ': " +
                        std::string(line)));
    }
    Result<ParsedAtom> atom =
        ParseConstrainedAtom(line.substr(4), program, /*names=*/nullptr);
    if (!atom.ok()) return AtLine(line_no, atom.status());
    updates.push_back(ParsedUpdate{is_delete, std::move(*atom)});
  }
  return updates;
}

std::string SerializeBurst(const std::vector<ParsedUpdate>& updates,
                           const VarNames* names) {
  std::ostringstream os;
  for (const ParsedUpdate& u : updates) {
    os << (u.is_delete ? "del " : "ins ")
       << PrintAtom(u.atom.pred, u.atom.args, u.atom.constraint, names);
    if (u.atom.constraint.is_true()) {
      os << " <- true";  // keep the "<-" anchor for the reader
    }
    os << ".\n";
  }
  return os.str();
}

Result<View> DeserializeView(std::string_view text, Program* program) {
  View view;
  size_t line_no = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++line_no;
    std::string_view line = Trim(raw);
    if (line.empty() || line[0] == '%') continue;

    // Split off "# depth" then "@ support".
    int depth = 0;
    size_t hash = line.rfind(" # ");
    if (hash != std::string_view::npos) {
      // At most 9 digits: |depth| < 10^9.
      std::string_view field = Trim(line.substr(hash + 3));
      Result<int> d = ParseDecimal<int>(field, "depth field");
      if (d.ok() && (*d > 999999999 || *d < -999999999)) {
        d = Status::ParseError("bad depth field '" + std::string(field) +
                               "'");
      }
      if (!d.ok()) return AtLine(line_no, d.status());
      depth = *d;
      line = Trim(line.substr(0, hash));
    }
    size_t at = line.rfind(" @ ");
    if (at == std::string_view::npos) {
      return AtLine(line_no,
                    Status::ParseError("missing ' @ <support>' in line: " +
                                       std::string(line)));
    }
    Result<Support> support = ParseSupport(line.substr(at + 3));
    if (!support.ok()) return AtLine(line_no, support.status());
    std::string atom_text(Trim(line.substr(0, at)));
    atom_text += ".";

    Result<ParsedAtom> atom = ParseConstrainedAtom(atom_text, program);
    if (!atom.ok()) return AtLine(line_no, atom.status());
    ViewAtom va;
    va.pred = std::move(atom->pred);
    va.args = std::move(atom->args);
    va.constraint = std::move(atom->constraint);
    va.support = std::move(*support);
    va.depth = depth;
    view.Add(std::move(va));
  }
  return view;
}

}  // namespace parser
}  // namespace mmv
