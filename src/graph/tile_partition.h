// Contiguous spatial tiling of a UDG's nodes for the tiled slot engine.
//
// The simulator's per-node slot phases (tx decide, end-of-slot) are
// embarrassingly parallel per node — each node touches only its own protocol
// state, its own RNG stream and its own entries of the per-node metric
// arrays. A TilePartition fixes a node ORDER and splits it into contiguous
// tiles; the simulator processes one tile per common::TaskPool shard and
// merges per-tile outputs in tile order, the same fixed-shard/ordered-merge
// discipline that makes resolve and sweeps byte-identical at any thread
// count (docs/ARCHITECTURE.md, "Tiled slot engine").
//
// Two partitions exist:
//  * identity — one tile holding 0..n-1 ascending. The sequential engine:
//    bit-for-bit the historical slot loop, including trace event order.
//  * spatial  — nodes sorted by (cell_y, cell_x, id) over the same grid the
//    GridIndex buckets by (cell width = graph radius), split into near-equal
//    contiguous tiles via TaskPool::shard_range. Nodes of one tile are
//    spatially adjacent, so a tile pass walks a coherent region of the
//    deployment (cache locality for the SoA scratch arrays) and per-tile
//    transmission buffers stay dense.
//
// Determinism: both partitions are pure functions of (positions, radius, n,
// tile_count) — never of thread count or timing. The tile COUNT is chosen as
// a function of n alone (default_tile_count), so a run's tile structure is
// part of its deterministic configuration.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/unit_disk_graph.h"

namespace sinrcolor::graph {

class TilePartition {
 public:
  /// Empty partition (0 nodes, 1 empty tile); assign a factory result over it.
  TilePartition() = default;

  /// One tile over 0..n-1 in ascending id order — the sequential engine.
  static TilePartition identity(std::size_t n);

  /// `tile_count` near-equal contiguous tiles over the nodes sorted by
  /// (cell_y, cell_x, id), cell width = g.radius() (the GridIndex bucket
  /// width). `tile_count` is clamped to [1, max(n, 1)].
  static TilePartition spatial(const UnitDiskGraph& g, std::size_t tile_count);

  /// Tile count for an n-node run: ~256 nodes per tile, capped at 64 tiles.
  /// A pure function of n (never of the thread count), so the tile structure
  /// — and with it any tile-merge order — is fixed per topology size.
  static std::size_t default_tile_count(std::size_t n);

  std::size_t size() const { return order_.size(); }
  std::size_t tile_count() const {
    return offsets_.empty() ? 1 : offsets_.size() - 1;
  }

  /// The node ids of tile `t`, in partition order.
  std::span<const NodeId> tile(std::size_t t) const;

  /// All node ids in partition order (tiles concatenated).
  std::span<const NodeId> order() const { return order_; }

  /// Heap footprint of the partition itself (bytes/node accounting).
  std::size_t memory_bytes() const;

 private:
  std::vector<NodeId> order_;
  std::vector<std::size_t> offsets_;  ///< tile t = order_[offsets_[t]..t+1)
};

}  // namespace sinrcolor::graph
