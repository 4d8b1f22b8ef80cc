// The `facextract` / `facedb` pair of the law-enforcement example, as one
// synthetic, time-versioned domain backed by catalog tables.
//
// The substitution (DESIGN.md Section 5): the paper's face-recognition
// packages return sets of mugshot files; we generate a synthetic catalog of
// surveillance photos and known faces with a controllable match structure.
// Adding surveillance photos at a later tick reproduces exactly the
// "surveillance data has been extended" update of Section 3 / Section 4.

#ifndef MMV_DOMAIN_FACE_DOMAIN_H_
#define MMV_DOMAIN_FACE_DOMAIN_H_

#include <memory>
#include <string>

#include "domain/domain.h"

namespace mmv {
namespace dom {

/// \brief Synthetic face-recognition domain.
///
/// Functions (all evaluated against table state as of the query tick):
///   segmentface(dataset)   -> { [mugshot_file, origin_photo], ... }
///   matchface(f1, f2)      -> { true } iff both files show the same face
///   findface(person_name)  -> { face_file, ... } mugshot library entries
///   findname(face_file)    -> { person_name, ... }
class FaceDomain : public Domain {
 public:
  /// \brief Creates backing tables `<name>_surveillance` and
  /// `<name>_mugshots` in \p catalog.
  static Result<std::unique_ptr<FaceDomain>> Create(std::string name,
                                                    rel::Catalog* catalog);

  /// \brief Records that \p photo_id in \p dataset contains \p face_id;
  /// returns the generated mugshot file name.
  Result<std::string> AddSurveillanceFace(const std::string& dataset,
                                          const std::string& photo_id,
                                          int64_t face_id);

  /// \brief Removes a surveillance observation (e.g. "the photograph was a
  /// forgery").
  Status RemoveSurveillanceFace(const std::string& dataset,
                                const std::string& photo_id, int64_t face_id);

  /// \brief Registers \p person_name with \p face_id in the mugshot
  /// library; returns the library file name.
  Result<std::string> AddPerson(const std::string& person_name,
                                int64_t face_id);

  Result<DcaResult> Call(const std::string& fn,
                         const std::vector<Value>& args) override;
  Result<DcaResult> CallAt(const std::string& fn,
                           const std::vector<Value>& args,
                           int64_t tick) override;

  std::vector<std::string> Functions() const override {
    return {"segmentface", "matchface", "findface", "findname"};
  }

  /// Evaluation only reads the backing catalog tables (RowsAt);
  /// the Add/Remove mutators are writer-side.
  bool ConcurrentCallSafe() const override { return true; }

 private:
  FaceDomain(std::string name, rel::Catalog* catalog)
      : Domain(std::move(name)), catalog_(catalog) {}

  std::string SurveillanceTable() const { return name() + "_surveillance"; }
  std::string MugshotTable() const { return name() + "_mugshots"; }

  /// \brief face id encoded in a generated file name, or -1.
  Result<int64_t> FaceIdOf(const std::string& file, int64_t tick) const;

  rel::Catalog* catalog_;
};

}  // namespace dom
}  // namespace mmv

#endif  // MMV_DOMAIN_FACE_DOMAIN_H_
