#include "minmach/util/cli.hpp"

#include <charconv>
#include <system_error>

namespace minmach {

namespace {

// Parses the whole of `text` as a T, or throws naming the flag.
template <typename T>
T parse_number(const std::string& key, const std::string& text,
               const char* expected) {
  T out{};
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, out);
  if (error == std::errc::result_out_of_range)
    throw CliError("Cli: --" + key + " is out of range (got '" + text +
                   "')");
  if (error != std::errc() || end != last)
    throw CliError("Cli: --" + key + " expects " + expected + " (got '" +
                   text + "')");
  return out;
}

}  // namespace

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      // Most often a value given after a space: name the flag it belongs to.
      const std::string previous = i > 1 ? argv[i - 1] : "";
      if (previous.rfind("--", 0) == 0 &&
          previous.find('=') == std::string::npos)
        throw CliError("Cli: expected --key=value, got " + arg + " after " +
                       previous + " (write " + previous + "=" + arg + ")");
      throw CliError("Cli: expected --key=value, got " + arg);
    }
    auto eq = arg.find('=');
    std::string key =
        eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
    values_[key] = eq == std::string::npos
                       ? std::nullopt
                       : std::optional<std::string>(arg.substr(eq + 1));
    seen_[key] = false;
  }
}

const std::string* Cli::value_of(const std::string& key) {
  auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  seen_[key] = true;
  if (!it->second)
    throw CliError("Cli: --" + key + " needs a value (--" + key + "=...)");
  return &*it->second;
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t default_value) {
  const std::string* value = value_of(key);
  if (value == nullptr) return default_value;
  return parse_number<std::int64_t>(key, *value, "an integer");
}

double Cli::get_double(const std::string& key, double default_value) {
  const std::string* value = value_of(key);
  if (value == nullptr) return default_value;
  return parse_number<double>(key, *value, "a number");
}

std::string Cli::get_string(const std::string& key, std::string default_value) {
  const std::string* value = value_of(key);
  if (value == nullptr) return default_value;
  return *value;
}

bool Cli::get_bool(const std::string& key, bool default_value) {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  seen_[key] = true;
  if (!it->second) return true;  // a bare switch
  const std::string& value = *it->second;
  return value == "1" || value == "true" || value == "yes";
}

bool Cli::was_given(const std::string& key) const {
  return values_.find(key) != values_.end();
}

void Cli::check_unknown() const {
  for (const auto& [key, used] : seen_) {
    if (!used)
      throw CliError("Cli: unknown flag --" + key);
  }
}

}  // namespace minmach
