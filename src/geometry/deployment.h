// Node deployment generators.
//
// The paper assumes arbitrary placement in the plane; experiments use a few
// canonical random and structured deployments so that claims can be checked
// both on "nice" (uniform) and adversarial (clustered, linear) topologies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "geometry/point.h"

namespace sinrcolor::geometry {

/// An immutable set of node positions inside [0, side] x [0, side].
struct Deployment {
  std::vector<Point> points;
  double side = 0.0;

  std::size_t size() const { return points.size(); }
};

/// n points i.i.d. uniform in the square [0, side]^2.
Deployment uniform_deployment(std::size_t n, double side, common::Rng& rng);

/// sqrt(n) x sqrt(n)-ish grid with per-point uniform jitter in
/// [-jitter, jitter]^2 (clamped to the square). jitter = 0 gives an exact grid.
Deployment grid_deployment(std::size_t n, double side, double jitter,
                           common::Rng& rng);

/// `clusters` cluster centers uniform in the square; each point is placed
/// Gaussian-ish (uniform-in-disc of radius `spread`) around a random center.
/// Produces the dense-hotspot topologies that stress the Δ-dependence.
Deployment clustered_deployment(std::size_t n, double side, std::size_t clusters,
                                double spread, common::Rng& rng);

/// n points on a horizontal line with `spacing` between consecutive points
/// (collinear chain; an adversarial case for disc-packing arguments).
Deployment line_deployment(std::size_t n, double spacing);

}  // namespace sinrcolor::geometry
