// Shared typed flag registry for the CLI tools: tetra_synth, tetra_predict,
// tetra_record_demo, tetra_scenario and tetra_sentinel all parse their
// flags through it.
//
//   tools::FlagRegistry cli("tetra_sentinel");
//   cli.flag("--baseline", "FILE", "baseline trace (repeatable)", &baselines)
//      .flag("--alpha", "A", "KS significance level", &alpha)
//      .flag("--quiet", "suppress per-window output", &quiet);
//   switch (cli.parse(argc, argv)) {
//     case tools::FlagRegistry::Parse::Help: return 0;
//     case tools::FlagRegistry::Parse::Error: return 2;
//     case tools::FlagRegistry::Parse::Ok: break;
//   }
//
// Usage text is generated from the declarations, unknown flags and
// positional arguments are rejected (exit 2 convention), every value is
// checked at parse time (numbers strictly, with their domain; structured
// values such as KEY=VALUE pairs and comma lists through the custom-parse
// overload), and --help/-h is always available. tools::write_file is the
// tools' one writer of output files.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

namespace tetra::tools {

/// Parses all of `text` as one base-10 integer in T's range, or one
/// finite floating-point number; false on anything else, trailing junk
/// included. *out is only written on success.
template <typename T>
bool parse_number(const std::string& text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

/// Writes `content` to `path`, replacing the file; throws
/// std::runtime_error when it cannot be written.
inline void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::trunc);
  f << content;
  f.close();
  if (!f) throw std::runtime_error("cannot write " + path);
}

class FlagRegistry {
 public:
  enum class Parse { Ok, Help, Error };

  explicit FlagRegistry(std::string tool) : tool_(std::move(tool)) {}

  /// Boolean switch (no value).
  FlagRegistry& flag(const std::string& name, const std::string& help,
                     bool* out) {
    return add(name, "", help, "", [out](const std::string&) {
      *out = true;
      return true;
    });
  }

  /// Switch running a callback (e.g. --mt / --st forcing a mode).
  FlagRegistry& flag(const std::string& name, const std::string& help,
                     std::function<void()> on_set) {
    return add(name, "", help, "",
               [fn = std::move(on_set)](const std::string&) {
                 fn();
                 return true;
               });
  }

  /// String value.
  FlagRegistry& flag(const std::string& name, const std::string& metavar,
                     const std::string& help, std::string* out) {
    return add(name, metavar, help, "", [out](const std::string& value) {
      *out = value;
      return true;
    });
  }

  /// Repeatable string value.
  FlagRegistry& flag(const std::string& name, const std::string& metavar,
                     const std::string& help,
                     std::vector<std::string>* out) {
    return add(name, metavar, help, "", [out](const std::string& value) {
      out->push_back(value);
      return true;
    });
  }

  /// Integer value with an inclusive lower bound.
  FlagRegistry& flag(const std::string& name, const std::string& metavar,
                     const std::string& help, int* out,
                     int min = std::numeric_limits<int>::min()) {
    return add(name, metavar, help, "an integer >= " + std::to_string(min),
               [min, out](const std::string& value) {
                 int parsed = 0;
                 if (!parse_number(value, &parsed) || parsed < min) {
                   return false;
                 }
                 *out = parsed;
                 return true;
               });
  }

  /// Unsigned integer value.
  template <typename UInt,
            typename = std::enable_if_t<std::is_unsigned_v<UInt>>>
  FlagRegistry& flag(const std::string& name, const std::string& metavar,
                     const std::string& help, UInt* out) {
    return add(name, metavar, help, "a non-negative integer",
               [out](const std::string& value) {
                 return parse_number(value, out);
               });
  }

  /// Strictly positive floating-point value.
  FlagRegistry& flag(const std::string& name, const std::string& metavar,
                     const std::string& help, double* out) {
    return add(name, metavar, help, "a positive number",
               [out](const std::string& value) {
                 double parsed = 0.0;
                 if (!parse_number(value, &parsed) || parsed <= 0.0) {
                   return false;
                 }
                 *out = parsed;
                 return true;
               });
  }

  /// Custom value parse: `parse` applies the value, or returns false to
  /// reject it as "NAME expects EXPECTS, got 'VALUE'".
  FlagRegistry& flag(const std::string& name, const std::string& metavar,
                     const std::string& help, const std::string& expects,
                     std::function<bool(const std::string& value)> parse) {
    return add(name, metavar, help, expects, std::move(parse));
  }

  /// Parses argv. On Error the diagnostic and usage text already went to
  /// stderr (tools map Error to exit 2); on Help the usage went to
  /// stderr and tools exit 0.
  Parse parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        print_usage(stderr);
        return Parse::Help;
      }
      const Flag* match = nullptr;
      for (const Flag& flag : flags_) {
        if (flag.name == arg) {
          match = &flag;
          break;
        }
      }
      if (match == nullptr) {
        if (arg.rfind("--", 0) == 0) {
          std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
        } else {
          std::fprintf(stderr, "error: unexpected positional argument '%s'\n",
                       arg.c_str());
        }
        print_usage(stderr);
        return Parse::Error;
      }
      std::string value;
      if (!match->metavar.empty()) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "error: %s expects a value (%s)\n",
                       match->name.c_str(), match->metavar.c_str());
          print_usage(stderr);
          return Parse::Error;
        }
        value = argv[++i];
      }
      if (!match->handle(value)) {
        std::fprintf(stderr, "error: %s expects %s, got '%s'\n",
                     match->name.c_str(), match->expects.c_str(),
                     value.c_str());
        print_usage(stderr);
        return Parse::Error;
      }
    }
    return Parse::Ok;
  }

  /// Emits a usage diagnostic for a cross-flag constraint the registry
  /// cannot express (missing required flag, conflicting modes) and
  /// returns the usage exit code for `return cli.usage_error(...)`.
  int usage_error(const std::string& message) const {
    std::fprintf(stderr, "error: %s\n", message.c_str());
    print_usage(stderr);
    return 2;
  }

  void print_usage(std::FILE* out) const {
    std::fprintf(out, "usage: %s [flags]\n", tool_.c_str());
    std::size_t width = 0;
    for (const Flag& flag : flags_) {
      width = std::max(width, flag.name.size() + 1 + flag.metavar.size());
    }
    for (const Flag& flag : flags_) {
      std::string left = flag.name;
      if (!flag.metavar.empty()) left += " " + flag.metavar;
      std::fprintf(out, "  %-*s  %s\n", static_cast<int>(width), left.c_str(),
                   flag.help.c_str());
    }
  }

 private:
  struct Flag {
    std::string name;
    std::string metavar;  ///< empty for switches, which take no value
    std::string help;
    std::string expects;  ///< the accepted values, for the parse error
    std::function<bool(const std::string&)> handle;
  };

  FlagRegistry& add(std::string name, std::string metavar, std::string help,
                    std::string expects,
                    std::function<bool(const std::string&)> handle) {
    flags_.push_back(Flag{std::move(name), std::move(metavar), std::move(help),
                          std::move(expects), std::move(handle)});
    return *this;
  }

  std::string tool_;
  std::vector<Flag> flags_;
};

}  // namespace tetra::tools
