// Command-line flags for the executables (dmm_cli and the bench binaries).
// A command declares each flag once — its name, the variable it sets, the
// value's type and lower bound — plus its positional arguments, and parse()
// rejects everything else: an undeclared or repeated flag, a missing or
// malformed value, a missing required flag, a missing or stray positional.
//
//   int threads = 1;
//   std::string spec;
//   bool json = false;
//   util::Flags flags("usage: greedy --instance <spec> [--threads N>=1] [--json]");
//   flags.option("--instance", spec).required().number("--threads", threads, 1)
//        .flag("--json", json);
//   flags.parse(args);  // throws util::UsageError
//
// A value follows its flag as the next token (`--threads 4`, never
// `--threads=4`), and a token that starts with `--` is never taken as a
// value.  Flags and positionals may come in any order.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace dmm::util {

/// A command line the command does not accept; what() is the reason, a
/// newline, then the command's usage line.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// `token` as a whole T of at least `min`, or nothing: "3x", "x", "", "+2"
/// and values out of T's range fail, "2.5" fails for an integer T, and a
/// floating-point T must be finite.
template <class T>
std::optional<T> parse_number(std::string_view token, T min = std::numeric_limits<T>::lowest()) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (error != std::errc() || stop != end || value < min) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// One command's flags and positionals.  It keeps references to the
/// declared variables, which must outlive parse().
class Flags {
  // A string takes any token; a number must be a whole one.
  template <class V>
  static std::optional<V> read(const std::string& token) {
    if constexpr (std::is_arithmetic_v<V>) {
      return parse_number<V>(token);
    } else {
      return V(token);
    }
  }

 public:
  explicit Flags(std::string usage) : usage_(std::move(usage)) {}

  /// `--name`, with no value: sets `out` to true.
  Flags& flag(std::string name, bool& out) {
    const auto given = [](const std::string&) { return std::optional<bool>(true); };
    flags_.push_back({std::move(name), false, false, store(out, given)});
    return *this;
  }

  /// `--name <value>` into `out` (a string or a number), read by
  /// `convert`, which returns an empty std::optional for a bad value.
  template <class Out, class Convert = std::optional<Out> (*)(const std::string&)>
  Flags& option(std::string name, Out& out, Convert convert = &read<Out>) {
    flags_.push_back({std::move(name), true, false, store(out, convert)});
    return *this;
  }

  /// `--name <number>` into `out`: a whole token of its type, at least `min`.
  template <class Out>
  Flags& number(std::string name, Out& out, std::type_identity_t<Out> min) {
    return option(std::move(name), out,
                  [min](const std::string& token) { return parse_number(token, min); });
  }

  /// Makes the flag declared last required.
  Flags& required() {
    flags_.back().required = true;
    return *this;
  }

  /// The next positional argument, into `out` (a string or a number).
  /// Every declared positional is required, and no other is accepted.
  template <class Out>
  Flags& positional(Out& out) {
    positionals_.push_back(store(out, &read<Out>));
    return *this;
  }

  /// Collects, in order, every token that starts with `prefix` into `out`
  /// (another parser's flags, passed on whole).
  Flags& forward(std::string prefix, std::vector<std::string>& out) {
    forward_prefix_ = std::move(prefix);
    forwarded_ = &out;
    return *this;
  }

  /// Sets the declared variables from `args` (the arguments after the
  /// command name); throws UsageError on anything undeclared.
  void parse(const std::vector<std::string>& args) const {
    std::vector<bool> seen(flags_.size(), false);
    std::size_t positionals = 0;
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& token = args[i];
      if (!is_flag(token)) {
        if (positionals == positionals_.size()) reject("unexpected argument '" + token + "'");
        if (!positionals_[positionals++](token)) reject("bad argument '" + token + "'");
        continue;
      }
      if (forwarded_ != nullptr && token.rfind(forward_prefix_, 0) == 0) {
        forwarded_->push_back(token);
        continue;
      }
      const auto spec = std::find_if(flags_.begin(), flags_.end(),
                                     [&](const Spec& s) { return s.name == token; });
      if (spec == flags_.end()) reject("unknown flag " + token);
      const auto f = static_cast<std::size_t>(spec - flags_.begin());
      if (seen[f]) reject("repeated flag " + token);
      seen[f] = true;
      if (!spec->takes_value) {
        spec->store(token);
      } else if (i + 1 == args.size() || is_flag(args[i + 1])) {
        reject("missing value for " + token);
      } else if (!spec->store(args[++i])) {
        reject("bad value '" + args[i] + "' for " + token);
      }
    }
    for (std::size_t f = 0; f < flags_.size(); ++f) {
      if (flags_[f].required && !seen[f]) reject("missing " + flags_[f].name);
    }
    if (positionals < positionals_.size()) reject("missing argument");
  }

  const std::string& usage() const noexcept { return usage_; }

 private:
  using Store = std::function<bool(const std::string&)>;

  struct Spec {
    std::string name;
    bool takes_value;
    bool required;
    Store store;
  };

  template <class Out, class Convert>
  static Store store(Out& out, Convert convert) {
    return [&out, convert](const std::string& token) {
      auto value = convert(token);
      if (value) out = *std::move(value);
      return value.has_value();
    };
  }

  static bool is_flag(const std::string& token) { return token.rfind("--", 0) == 0; }

  [[noreturn]] void reject(const std::string& reason) const {
    throw UsageError(reason + "\n" + usage_);
  }

  std::string usage_;
  std::vector<Spec> flags_;
  std::vector<Store> positionals_;
  std::string forward_prefix_;
  std::vector<std::string>* forwarded_ = nullptr;
};

}  // namespace dmm::util
