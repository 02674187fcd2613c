#!/usr/bin/env bash
# Prints the SIMD dispatch levels this host's CPU can execute, lowest
# first: "scalar", plus "avx2" on an x86-64 host with AVX2 and FMA.
# Single shell-side mirror of the AUTHORITATIVE predicate, cpu_supports()
# in src/asyncit/linalg/simd_dispatch.cpp — keep the two in sync. Used by
# scripts/verify.sh --simd-sweep and the CI tsan job, which pair each
# level with ASYNCIT_SIMD_REQUIRE: an emitted level whose backend IS
# compiled in must then be dispatchable or kernels_test fails the leg (a
# level the toolchain could not compile skips loudly instead — the test
# distinguishes the two; see
# DispatchEnv.RequiredLevelMustBeSupportedNotFallenBackFrom).
set -euo pipefail

levels="scalar"
if [[ "$(uname -m)" == x86_64 ]]; then
  if [[ -r /proc/cpuinfo ]] && grep -q '^flags' /proc/cpuinfo; then
    grep -qw avx2 /proc/cpuinfo && grep -qw fma /proc/cpuinfo \
      && levels="$levels avx2"
  else
    # An UNDER-claim silently drops the sweep's vector coverage (the
    # suite still passes, just without the avx2 parity leg), so a host
    # where detection cannot run at all must say so out loud.
    echo "simd_levels.sh: WARNING: /proc/cpuinfo unreadable or without" \
         "'flags' lines on x86_64 — sweeping SCALAR ONLY, vector-level" \
         "parity coverage is lost on this host" >&2
  fi
fi
echo "$levels"
