#include "util/cli.hpp"

#include <algorithm>
#include <climits>
#include <stdexcept>

namespace dvbs2::util {

long long parse_int(const std::string& text, const std::string& what) {
    std::size_t pos = 0;
    long long v = 0;
    try {
        v = std::stoll(text, &pos);
    } catch (const std::exception&) {
        throw std::runtime_error(what + ": expected an integer, got \"" + text + "\"");
    }
    if (pos != text.size())
        throw std::runtime_error(what + ": trailing characters after number in \"" + text + "\"");
    return v;
}

double parse_double(const std::string& text, const std::string& what) {
    std::size_t pos = 0;
    double v = 0.0;
    try {
        v = std::stod(text, &pos);
    } catch (const std::exception&) {
        throw std::runtime_error(what + ": expected a number, got \"" + text + "\"");
    }
    if (pos != text.size())
        throw std::runtime_error(what + ": trailing characters after number in \"" + text + "\"");
    return v;
}

CliArgs::CliArgs(int argc, const char* const* argv, std::vector<std::string> allowed) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        const std::string body = arg.substr(2);
        const auto eq = body.find('=');
        const std::string name = body.substr(0, eq);
        if (std::find(allowed.begin(), allowed.end(), name) == allowed.end())
            throw std::runtime_error("unknown option --" + name);
        values_[name] = (eq == std::string::npos) ? std::string{} : body.substr(eq + 1);
    }
}

bool CliArgs::has(const std::string& name) const { return values_.count(name) != 0; }

std::string CliArgs::get(const std::string& name, const std::string& def) const {
    const auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
}

long long CliArgs::get_int(const std::string& name, long long def) const {
    const auto it = values_.find(name);
    return it == values_.end() ? def : parse_int(it->second, "--" + name);
}

long long CliArgs::bounded_int(const std::string& name, long long def, long long lo,
                              long long hi) const {
    const long long v = get_int(name, def);
    if (v < lo || v > hi)
        throw std::runtime_error(
            "--" + name + " must be " +
            (hi == LLONG_MAX ? "at least " + std::to_string(lo)
                             : "in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]") +
            ", got " + std::to_string(v));
    return v;
}

double CliArgs::get_double(const std::string& name, double def) const {
    const auto it = values_.find(name);
    return it == values_.end() ? def : parse_double(it->second, "--" + name);
}

}  // namespace dvbs2::util
