// Error-handling helpers shared by all dvbs2 libraries.
//
// Construction-time and API-contract violations throw std::invalid_argument /
// std::runtime_error with a message that includes the failing expression and
// source location. Hot inner loops use DVBS2_ASSERT, which compiles out in
// release builds (NDEBUG).
#pragma once

#include <stdexcept>
#include <string>

namespace dvbs2 {

/// Builds the exception message for DVBS2_REQUIRE; kept out-of-line so the
/// macro expansion stays small at call sites. Defined in error.cpp, not
/// inline: an inline copy emitted by a TU built with vector flags (the SIMD
/// engines) could be the one the linker keeps for every caller.
[[noreturn]] void throw_requirement_failure(const char* expr, const char* file, int line,
                                            const std::string& what);

}  // namespace dvbs2

/// Always-on contract check: throws std::runtime_error when `expr` is false.
/// Use for API preconditions and construction invariants.
#define DVBS2_REQUIRE(expr, msg)                                                \
    do {                                                                        \
        if (!(expr)) ::dvbs2::throw_requirement_failure(#expr, __FILE__, __LINE__, (msg)); \
    } while (0)

/// Debug-only check for hot paths; compiled out under NDEBUG.
#ifdef NDEBUG
#define DVBS2_ASSERT(expr) ((void)0)
#else
#define DVBS2_ASSERT(expr)                                                      \
    do {                                                                        \
        if (!(expr)) ::dvbs2::throw_requirement_failure(#expr, __FILE__, __LINE__, "debug assert"); \
    } while (0)
#endif
