// provenance.h — where did this run come from?
//
// A ledger record is only comparable to another when you know what produced
// it: which commit, which build flavor. Provenance answers both, cheaply
// and without configure-time staleness — the git SHA is resolved at
// runtime (an SHA baked in at configure time lies as soon as you commit).
#pragma once

#include <string>

namespace axiomcc::ledger {

struct Provenance {
  /// Full commit SHA of the working tree, resolved in precedence order:
  /// the AXIOMCC_GIT_SHA environment variable (CI sets this; also the test
  /// override), else `git rev-parse HEAD` run from the current directory,
  /// else "unknown" (tarball builds, no git on PATH).
  std::string git_sha = "unknown";

  /// Build flavor string composed at compile time from the CMake
  /// configuration: the build type plus any "+asan" / "+tsan" suffix (e.g.
  /// "Release", "Debug+asan"). "unknown" when the build system did not
  /// define AXIOMCC_BUILD_FLAVOR.
  std::string build_flavor = "unknown";
};

/// The process's provenance. The AXIOMCC_GIT_SHA environment override is
/// consulted on every call (tests pin it); the `git rev-parse` fallback
/// (one subprocess) runs once and is cached for the process lifetime.
[[nodiscard]] Provenance current_provenance();

/// True when `sha` looks like a full or abbreviated hex commit SHA — the
/// sanity filter applied to `git rev-parse` output before trusting it.
[[nodiscard]] bool looks_like_git_sha(const std::string& sha);

}  // namespace axiomcc::ledger
