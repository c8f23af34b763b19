#include "net/topology.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace blam {

std::vector<Position> random_disk(int n, double radius_m, Position center, Rng& rng) {
  if (n < 0) throw std::invalid_argument{"random_disk: negative count"};
  if (radius_m <= 0.0) throw std::invalid_argument{"random_disk: radius must be positive"};
  std::vector<Position> positions;
  positions.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Uniform over the disk: radius ~ sqrt(U) * R.
    const double r = radius_m * std::sqrt(rng.uniform());
    const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
    positions.push_back(
        Position{center.x_m + r * std::cos(angle), center.y_m + r * std::sin(angle)});
  }
  return positions;
}

std::vector<Position> grid(int n, double pitch_m, Position center) {
  if (n < 0) throw std::invalid_argument{"grid: negative count"};
  if (pitch_m <= 0.0) throw std::invalid_argument{"grid: pitch must be positive"};
  const int cols = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(std::max(n, 1)))));
  const int rows = (n + cols - 1) / std::max(cols, 1);
  const double x0 = center.x_m - pitch_m * static_cast<double>(cols - 1) / 2.0;
  const double y0 = center.y_m - pitch_m * static_cast<double>(rows - 1) / 2.0;
  std::vector<Position> positions;
  positions.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int row = i / cols;
    const int col = i % cols;
    positions.push_back(
        Position{x0 + pitch_m * static_cast<double>(col), y0 + pitch_m * static_cast<double>(row)});
  }
  return positions;
}

std::vector<Position> ring(int n, double radius_m, Position center) {
  if (n < 0) throw std::invalid_argument{"ring: negative count"};
  if (radius_m <= 0.0) throw std::invalid_argument{"ring: radius must be positive"};
  std::vector<Position> positions;
  positions.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(i) / std::max(n, 1);
    positions.push_back(Position{center.x_m + radius_m * std::cos(angle),
                                 center.y_m + radius_m * std::sin(angle)});
  }
  return positions;
}

}  // namespace blam
