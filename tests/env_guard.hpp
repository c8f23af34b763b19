// RAII guard for one environment variable, so a test that sets BLAM_*
// knobs cannot leak them into the tests after it.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace blam {

class EnvGuard {
 public:
  /// Saves `name`; the destructor restores it (or unsets it).
  explicit EnvGuard(const char* name) : name_{name} {
    if (const char* v = std::getenv(name)) saved_ = v;
  }
  /// Saves `name`, then sets it to `value` for the guard's lifetime.
  EnvGuard(const char* name, const char* value) : EnvGuard{name} { ::setenv(name, value, 1); }
  ~EnvGuard() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

}  // namespace blam
