#include "util/error.hpp"

#include <sstream>

namespace dvbs2 {

void throw_requirement_failure(const char* expr, const char* file, int line,
                               const std::string& what) {
    std::ostringstream os;
    os << "requirement failed: " << expr << " at " << file << ':' << line;
    if (!what.empty()) os << " — " << what;
    throw std::runtime_error(os.str());
}

}  // namespace dvbs2
