// Tiny --key=value flag parser for the bench/example binaries. Unknown flags
// throw, so typos in experiment sweeps fail loudly rather than silently
// running the default configuration. So do malformed values: numbers must
// span the whole token, and only a boolean switch may be given bare
// (--key); every refusal is a CliError naming the flag.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

namespace minmach {

// A malformed command line. Its own type so a driver can turn exactly
// these into a usage error (exit 2) while library exceptions still abort.
class CliError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Cli {
 public:
  Cli(int argc, char** argv);

  // Each getter registers the key as known; after all getters ran, call
  // check_unknown() to reject unrecognized flags.
  std::int64_t get_int(const std::string& key, std::int64_t default_value);
  double get_double(const std::string& key, double default_value);
  std::string get_string(const std::string& key, std::string default_value);
  bool get_bool(const std::string& key, bool default_value);

  // True iff the flag appeared on the command line (regardless of whether a
  // getter consumed it). Lets callers distinguish an explicit value that
  // happens to equal the default from the flag being absent.
  [[nodiscard]] bool was_given(const std::string& key) const;

  void check_unknown() const;

 private:
  // The flag's value, or nullptr when it is absent; registers the key as
  // known. Throws when the flag was given bare.
  const std::string* value_of(const std::string& key);

  // std::nullopt for a bare --key.
  std::map<std::string, std::optional<std::string>> values_;
  std::map<std::string, bool> seen_;
};

}  // namespace minmach
