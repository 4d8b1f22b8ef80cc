// Canonical view checkpoints: the periodic snapshots that bound WAL replay
// at recovery.
//
// There is ONE frame format. Every checkpoint frame describes its image as
// a delta against a BASE image: a full checkpoint ("ckpt-<epoch>.mmv") is
// the delta against the empty image, a delta checkpoint
// ("dckpt-<epoch>.mmv") the delta against its PARENT checkpoint's image.
// A frame is a small text header followed by the body:
//
//   mmv-checkpoint v2
//   epoch <e>            -- view epoch the image corresponds to
//   parent <p> | none    -- epoch of the base checkpoint; none = empty base
//   ext_counter <c>      -- external-support counter at that epoch
//   program <8 hex>      -- CRC32C of Program::ToString(): recovery refuses
//                           to replay against a different clause set
//   wal_offset <n>       -- end offset of the WAL segment at write time
//   atoms <n>            -- atom count of the image (composition check)
//   checksum <8 hex>     -- CRC32C of the whole file minus this line
//   ---
//   removed <pred>           -- the predicate vanished entirely
//   seg <pred> <n>           -- the predicate's segment changed: the next
//   <n atom lines>              n lines are its full new contents
//   order keep <k>           -- the first k atoms of the base's global
//                               order survive unchanged...
//   order run <pred> <n>     -- ...followed by these (pred, count) runs.
//                               Within one pred the global order equals
//                               segment order, so runs carry no offsets.
//
// The checksum line covers every other byte of the file (header AND body),
// so a torn or bit-flipped frame is detected as a unit. The file name
// carries the epoch and the kind: the decoder rejects a frame whose header
// epoch disagrees with its name, a "ckpt-" frame with a parent and a
// "dckpt-" frame without one. Recovery starts from an empty ComposedState
// and applies a chain's frames oldest first (the full at the bottom, then
// each descendant delta); a body that does not compose — unknown
// predicate, truncated section, order/segment/header counts that
// disagree — is a ParseError, never an out-of-bounds read.

#ifndef MMV_DURABILITY_CHECKPOINT_H_
#define MMV_DURABILITY_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/program.h"
#include "core/snapshot_image.h"
#include "core/view.h"

namespace mmv {
namespace durability {

/// \brief Header fields of one checkpoint frame.
struct CheckpointMeta {
  uint64_t epoch = 0;
  /// Epoch of the base checkpoint the body diffs against; nullopt for a
  /// full frame (its base is the empty image).
  std::optional<uint64_t> parent;
  int ext_counter = 0;
  uint32_t program_crc = 0;
  uint64_t wal_offset = 0;
  uint64_t atoms = 0;  ///< atom count of the image the frame composes to
};

/// \brief Renders a checkpoint frame (header + checksum + body).
std::string EncodeCheckpoint(const CheckpointMeta& meta,
                             std::string_view body);

/// \brief Parses and VALIDATES the frame \p file stored under file name
/// \p name: structure, version, whole-file checksum, epoch == the name's
/// epoch, parent present iff the name is a "dckpt-" name, parent older
/// than the frame. On success the body is copied into \p body. Failures
/// are ParseErrors naming what broke.
Result<CheckpointMeta> DecodeCheckpoint(std::string_view name,
                                        std::string_view file,
                                        std::string* body);

/// \brief The body that turns \p base into \p image: every segment whose
/// pointer AND bytes differ from the base's, the removed predicates and
/// the order after the chunk prefix both images share. A default-
/// constructed (empty) \p base yields a full frame's body.
std::string BuildDeltaBody(const SnapshotImage& base,
                           const SnapshotImage& image);

/// \brief The working state a checkpoint chain composes into: mutable
/// per-pred segments plus the flattened global-order runs. Starts empty.
struct ComposedState {
  std::unordered_map<Symbol, std::vector<ViewAtom>> segments;
  std::vector<SnapshotImage::OrderRun> order;
};

/// \brief Applies one frame's body over \p state. Strict: any structural
/// surprise (unknown removed pred, truncated section, order mismatch, atom
/// count disagreeing with \p meta) is a ParseError. Atom variable ids are
/// drawn from \p program's factory.
Status ApplyDeltaBody(std::string_view body, Program* program,
                      const CheckpointMeta& meta, ComposedState* state);

/// \brief Materializes \p state into a View, re-adding atoms in the
/// recorded global order (continued maintenance is byte-identical only if
/// the rebuilt view enumerates like the original). Consumes \p state.
Result<View> BuildView(ComposedState* state);

/// \brief "ckpt-<epoch, zero-padded>.mmv" — zero padding keeps
/// lexicographic file order equal to epoch order.
std::string CheckpointFileName(uint64_t epoch);

/// \brief "dckpt-<epoch, zero-padded>.mmv": a delta frame against the
/// checkpoint named by its `parent` header field.
std::string DeltaCheckpointFileName(uint64_t epoch);

/// \brief "wal-<base, zero-padded>.log": the segment holding records with
/// seq > base (a fresh segment starts at every checkpoint).
std::string WalSegmentFileName(uint64_t base);

/// \brief Extracts the epoch/base out of a file name produced by the
/// helpers above; error if \p name has a different shape (".tmp" siblings
/// and foreign files are NOT valid checkpoint/segment names).
Result<uint64_t> ParseCheckpointFileName(std::string_view name);
Result<uint64_t> ParseDeltaCheckpointFileName(std::string_view name);
Result<uint64_t> ParseWalSegmentFileName(std::string_view name);

}  // namespace durability
}  // namespace mmv

#endif  // MMV_DURABILITY_CHECKPOINT_H_
