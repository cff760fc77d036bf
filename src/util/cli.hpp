// Minimal command-line option parser for the example and bench binaries.
//
// Supports --name=value and --flag forms. Unknown options raise an error so
// typos are caught instead of silently ignored.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dvbs2::util {

/// Strict numeric parsing for user-supplied text (CLI flags, environment
/// variables). Unlike bare std::stoll/std::stod these reject empty input,
/// trailing garbage ("8x") and out-of-range values with a std::runtime_error
/// naming `what` (e.g. "--threads" or "DVBS2_THREADS") instead of letting an
/// uncaught std::invalid_argument abort the program.
long long parse_int(const std::string& text, const std::string& what);
double parse_double(const std::string& text, const std::string& what);

/// Parses `--key=value` / `--flag` arguments and serves typed lookups with
/// defaults. Positional arguments are collected in order.
class CliArgs {
public:
    /// Parses argv; `allowed` lists the option names (without "--") the
    /// program accepts. Throws std::runtime_error on an unknown option or a
    /// malformed argument.
    CliArgs(int argc, const char* const* argv, std::vector<std::string> allowed);

    /// True if --name was present (with or without a value).
    bool has(const std::string& name) const;

    /// Typed accessors with defaults.
    std::string get(const std::string& name, const std::string& def) const;
    long long get_int(const std::string& name, long long def) const;
    double get_double(const std::string& name, double def) const;

    /// get_int for a flag that must lie in [lo, hi]: throws
    /// std::runtime_error naming the flag and its range otherwise
    /// ("--workers must be in [0, 4096], got -1"; hi = LLONG_MAX reads
    /// "at least lo"). Check counts here, before they size anything.
    long long bounded_int(const std::string& name, long long def, long long lo,
                          long long hi) const;

    const std::vector<std::string>& positional() const noexcept { return positional_; }

private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

}  // namespace dvbs2::util
