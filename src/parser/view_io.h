// View (de)serialization: a line-oriented text format so materialized
// mediated views survive process restarts (a production necessity the
// paper's HERMES system implies but does not spell out).
//
// Format, one atom per line:
//
//   pred(arg1, ..., argk) <- constraint @ <support> # depth
//
// Variables print as X<id>; deserialization re-scopes them per atom (the
// ids are local to each constrained atom anyway). Supports use the paper's
// angle-bracket notation <Cn, <...>, ...>.
//
// The same module reads and writes BURST files — recorded update workloads
// replayed by the batch-maintenance tests and benchmarks. One update per
// line, '%' comments and blank lines ignored:
//
//   del pred(arg1, ..., argk) <- constraint.
//   ins pred(arg1, ..., argk) <- constraint.

#ifndef MMV_PARSER_VIEW_IO_H_
#define MMV_PARSER_VIEW_IO_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/program.h"
#include "core/view.h"
#include "parser/parser.h"

namespace mmv {
namespace parser {

/// \brief Serializes \p view into the line format above.
std::string SerializeView(const View& view);

/// \brief Serializes an immutable snapshot image in its global atom order
/// — byte-identical to SerializeView of the view it was extracted from
/// (the checkpoint writer consumes the image so it never deep-reads the
/// live view).
std::string SerializeImage(const SnapshotImage& image);

/// \brief Serializes one run of atoms in the same line format (delta
/// checkpoints write per-pred segments with this).
std::string SerializeAtoms(const std::vector<ViewAtom>& atoms);

/// \brief Parses a serialized view. Fresh variable ids are drawn from
/// \p program's factory so the atoms can be joined against the program.
Result<View> DeserializeView(std::string_view text, Program* program);

/// \brief Parses a support in the paper notation, e.g. "<4, <2, <3>>>".
Result<Support> ParseSupport(std::string_view text);

/// \brief One line of a burst file: a deletion or insertion request.
struct ParsedUpdate {
  bool is_delete = false;
  ParsedAtom atom;
};

/// \brief Parses a burst-workload file (format above). Variable ids are
/// drawn from \p program's factory, standardizing each update apart; their
/// source names are not recorded (they print as X<id>), so a stream of
/// bursts leaves the program's name table as it was.
Result<std::vector<ParsedUpdate>> ParseBurst(std::string_view text,
                                             Program* program);

/// \brief Serializes updates into the burst line format (inverse of
/// ParseBurst up to variable naming).
std::string SerializeBurst(const std::vector<ParsedUpdate>& updates,
                           const VarNames* names = nullptr);

}  // namespace parser
}  // namespace mmv

#endif  // MMV_PARSER_VIEW_IO_H_
