#include "core/dif.hpp"

#include <stdexcept>

namespace blam {

void throw_dif_max_tx() {
  throw std::invalid_argument{"degradation_impact_factor: max_tx must be positive"};
}

}  // namespace blam
