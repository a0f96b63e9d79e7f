#include "geometry/deployment.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace sinrcolor::geometry {
namespace {

// Coincident radios are physically meaningless (zero distance ⇒ unbounded
// received power), so generators must never emit exact duplicates. Clamping
// to the world square (clustered/grid jitter) is the one code path that can
// collide; nudge duplicates apart deterministically.
void deduplicate(std::vector<Point>& points, double side, common::Rng& rng) {
  for (int pass = 0; pass < 8; ++pass) {
    std::vector<std::size_t> order(points.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return points[a].x != points[b].x ? points[a].x < points[b].x
                                        : points[a].y < points[b].y;
    });
    bool any = false;
    for (std::size_t k = 1; k < order.size(); ++k) {
      Point& p = points[order[k]];
      if (p == points[order[k - 1]]) {
        const double eps = side * 1e-9 * static_cast<double>(1 + pass);
        p.x = std::clamp(p.x + rng.uniform(-eps, eps), 0.0, side);
        p.y = std::clamp(p.y + rng.uniform(-eps, eps), 0.0, side);
        any = true;
      }
    }
    if (!any) return;
  }
}

}  // namespace

Deployment uniform_deployment(std::size_t n, double side, common::Rng& rng) {
  SINRCOLOR_CHECK(side > 0.0);
  Deployment d;
  d.side = side;
  d.points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.points.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  deduplicate(d.points, side, rng);
  return d;
}

Deployment grid_deployment(std::size_t n, double side, double jitter,
                           common::Rng& rng) {
  SINRCOLOR_CHECK(side > 0.0);
  SINRCOLOR_CHECK(jitter >= 0.0);
  Deployment d;
  d.side = side;
  d.points.reserve(n);
  const auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  const double step = side / static_cast<double>(cols);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = i / cols;
    const auto col = i % cols;
    double x = (static_cast<double>(col) + 0.5) * step;
    double y = (static_cast<double>(row) + 0.5) * step;
    if (jitter > 0.0) {
      x += rng.uniform(-jitter, jitter);
      y += rng.uniform(-jitter, jitter);
    }
    d.points.push_back({std::clamp(x, 0.0, side), std::clamp(y, 0.0, side)});
  }
  deduplicate(d.points, side, rng);
  return d;
}

Deployment clustered_deployment(std::size_t n, double side, std::size_t clusters,
                                double spread, common::Rng& rng) {
  SINRCOLOR_CHECK(side > 0.0);
  SINRCOLOR_CHECK(clusters > 0);
  SINRCOLOR_CHECK(spread > 0.0);
  std::vector<Point> centers;
  centers.reserve(clusters);
  for (std::size_t i = 0; i < clusters; ++i) {
    centers.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  Deployment d;
  d.side = side;
  d.points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Point& c = centers[rng.below(clusters)];
    // Uniform in disc of radius `spread` via rejection-free polar sampling.
    const double r = spread * std::sqrt(rng.uniform());
    const double theta = rng.uniform(0.0, 2.0 * M_PI);
    d.points.push_back({std::clamp(c.x + r * std::cos(theta), 0.0, side),
                        std::clamp(c.y + r * std::sin(theta), 0.0, side)});
  }
  deduplicate(d.points, side, rng);
  return d;
}

Deployment line_deployment(std::size_t n, double spacing) {
  SINRCOLOR_CHECK(spacing > 0.0);
  Deployment d;
  d.side = spacing * static_cast<double>(n > 0 ? n : 1);
  d.points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.points.push_back({spacing * static_cast<double>(i), 0.0});
  }
  return d;
}

}  // namespace sinrcolor::geometry
