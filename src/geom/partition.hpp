// Partition of the cost array into per-processor owned regions.
//
// The message passing implementation divides the cost array into a
// mesh_rows × mesh_cols grid of regions; processor (r, c) of the machine mesh
// owns region (r, c) (paper §4.1, Figure 2). The same partition also defines
// the "owner" notion used by the locality measure (§5.3.3) and by the
// locality-aware wire assignment strategies in both paradigms.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "support/assert.hpp"

namespace locus {

using ProcId = std::int32_t;

/// Chooses mesh dimensions (rows, cols) for `procs` processors, as close to
/// square as possible with rows <= cols (e.g. 2 -> 1x2, 4 -> 2x2, 9 -> 3x3,
/// 16 -> 4x4, 8 -> 2x4, 6 -> 2x3). `procs` must have such a factorization;
/// any integer works since 1 x procs always does.
struct MeshShape {
  std::int32_t rows = 1;
  std::int32_t cols = 1;
  static MeshShape for_procs(std::int32_t procs);
  std::int32_t procs() const { return rows * cols; }
};

/// Maps cost-array cells to owning processors and back.
///
/// Region boundaries split `channels` rows into `rows` nearly-equal bands and
/// `grids` columns into `cols` nearly-equal bands; earlier bands get the
/// remainder cells, so every cell belongs to exactly one region. That split
/// makes owner() two divisions: no search over the band starts.
class Partition {
 public:
  Partition(std::int32_t channels, std::int32_t grids, MeshShape mesh);

  std::int32_t channels() const { return channels_; }
  std::int32_t grids() const { return grids_; }
  MeshShape mesh() const { return mesh_; }
  std::int32_t num_regions() const { return mesh_.procs(); }

  /// Owning processor of a cell. O(1).
  ProcId owner(GridPoint p) const {
    LOCUS_ASSERT(p.channel >= 0 && p.channel < channels_);
    LOCUS_ASSERT(p.x >= 0 && p.x < grids_);
    return proc_at(row_split_.band_of(p.channel), col_split_.band_of(p.x));
  }

  /// Owned region rectangle of a processor.
  const Rect& region(ProcId proc) const;

  /// Mesh coordinates of a processor (row-major numbering).
  std::int32_t mesh_row(ProcId proc) const { return proc / mesh_.cols; }
  std::int32_t mesh_col(ProcId proc) const { return proc % mesh_.cols; }
  ProcId proc_at(std::int32_t row, std::int32_t col) const {
    return row * mesh_.cols + col;
  }

  /// Manhattan hop distance between two processors on the machine mesh.
  std::int32_t hop_distance(ProcId a, ProcId b) const;

  /// North/South/East/West mesh neighbors (fewer at the boundary).
  std::vector<ProcId> neighbors(ProcId proc) const;

  /// All region ids whose rectangles intersect `r`, in ascending order.
  std::vector<ProcId> regions_overlapping(const Rect& r) const;

 private:
  std::int32_t channels_;
  std::int32_t grids_;
  MeshShape mesh_;
  /// `total` cells in `bands` bands: the first `extra` bands hold base + 1
  /// cells, the rest `base` (base >= 1).
  struct BandSplit {
    std::int32_t base = 1;
    std::int32_t extra = 0;
    std::int32_t band_of(std::int32_t v) const {
      const std::int32_t long_cells = extra * (base + 1);
      return v < long_cells ? v / (base + 1) : extra + (v - long_cells) / base;
    }
  };

  BandSplit row_split_;
  BandSplit col_split_;
  std::vector<Rect> regions_;  // indexed by ProcId
};

}  // namespace locus
