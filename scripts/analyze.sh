#!/usr/bin/env sh
# Static-analysis gate.
#
# Preferred tool: clang-tidy with the repo's .clang-tidy profile, driven by a
# compile_commands.json (exported by every CMake configure).  On machines
# without clang-tidy (e.g. a gcc-only container) the gate degrades to a GCC
# strict-warning syntax pass over every translation unit so the script is
# still a meaningful, non-vacuous check everywhere.  Either mode exits
# non-zero on any finding.
#
# Usage: analyze.sh [build-dir]
#   build-dir: directory holding compile_commands.json.  Defaults to
#   $BMF_ANALYZE_BUILD_DIR, then the first existing build tree that already
#   exported one (every CMake configure does), then ./build-analyze
#   (configured on demand) — so a developer who has built anything never
#   pays a second configure just to analyze.
set -eu

src_dir="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
build_dir="${1:-${BMF_ANALYZE_BUILD_DIR:-}}"
if [ -z "$build_dir" ]; then
  for cand in "$src_dir/build" "$src_dir/build-ci-release" \
              "$src_dir/build-analyze"; do
    if [ -f "$cand/compile_commands.json" ]; then
      build_dir="$cand"
      echo "analyze.sh: reusing $cand/compile_commands.json"
      break
    fi
  done
  build_dir="${build_dir:-$src_dir/build-analyze}"
fi

if [ ! -f "$build_dir/compile_commands.json" ]; then
  echo "analyze.sh: configuring $build_dir for compile_commands.json"
  cmake -S "$src_dir" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
if [ ! -f "$build_dir/compile_commands.json" ]; then
  echo "analyze.sh: FAILED to produce compile_commands.json in $build_dir" >&2
  exit 1
fi

# All first-party translation units (tests included: they are contracts on
# the library's behavior and should be held to the same bar).
sources=$(find "$src_dir/src" "$src_dir/tests" -name '*.cpp' | sort)

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== analyze.sh: clang-tidy ($(clang-tidy --version | head -n 1)) =="
  status=0
  for tu in $sources; do
    clang-tidy -p "$build_dir" --quiet "$tu" || status=1
  done
  if [ "$status" -ne 0 ]; then
    echo "analyze.sh: clang-tidy reported findings" >&2
    exit 1
  fi
  echo "analyze.sh: clang-tidy clean"
  exit 0
fi

echo "== analyze.sh: clang-tidy not found; GCC strict-warning fallback =="
# -fsyntax-only keeps this fast (no codegen); the warning set approximates
# the bugprone/performance surface: shadowing, conversions that silently drop
# precision, pointer-alignment casts, missing virtual dtors, unchecked
# switches.  -Werror makes every finding fatal, matching WarningsAsErrors.
gcc_flags="-std=c++20 -fsyntax-only -Werror -Wall -Wextra -Wpedantic \
  -Wshadow -Wundef -Wcast-align -Wpointer-arith -Wnon-virtual-dtor \
  -Woverloaded-virtual -Wdouble-promotion -Wfloat-conversion \
  -Wswitch-enum -Wvla -Wformat=2 \
  -Wlogical-op -Wduplicated-cond -Wduplicated-branches"
includes="-I$src_dir/src -I$src_dir/tests"
# googletest headers for the test TUs: either a FetchContent checkout under
# the build dir or a system install on the default include path.
for d in "$build_dir"/_deps/googletest-src/googletest/include \
         "$build_dir"/_deps/googletest-src/googlemock/include; do
  [ -d "$d" ] && includes="$includes -isystem $d"
done
if printf '#include <gtest/gtest.h>\n' | \
   g++ -std=c++20 -fsyntax-only $includes -x c++ - 2>/dev/null; then
  have_gtest=1
else
  have_gtest=0
  echo "analyze.sh: gtest headers not found; skipping test TUs" >&2
fi

# The -D flags CMake compiled one translation unit with, as shell words
# (some are per target, e.g. BMF_SERVED_PATH for store_crash_test). The
# "command" line of an entry precedes its "file" line; the sed undoes the
# JSON escaping, leaving the shell quoting CMake wrote.
tu_defines() {
  awk -v want="\"file\": \"$1\"" '
    /^ *"command": / { cmd = $0 }
    /^ *"file": / {
      line = $0
      sub(/^ */, "", line)
      sub(/,$/, "", line)
      if (line == want) { print cmd; exit }
    }' "$build_dir/compile_commands.json" |
    sed -e 's/^ *"command": "//' -e 's/",*$//' -e 's/\\\(.\)/\1/g' |
    tr ' ' '\n' | grep '^-D' | tr '\n' ' ' || true
}

status=0
for tu in $sources; do
  case "$tu" in
    */tests/*)
      [ "$have_gtest" -eq 1 ] || continue ;;
  esac
  defines=$(tu_defines "$tu")
  # eval turns CMake's shell quoting (e.g. -DX=\"path\") into the words
  # g++ saw at build time.
  if ! eval "g++ \$gcc_flags \$includes $defines \"\$tu\""; then
    echo "analyze.sh: findings in $tu" >&2
    status=1
  fi
done
if [ "$status" -ne 0 ]; then
  echo "analyze.sh: strict-warning pass reported findings" >&2
  exit 1
fi
echo "analyze.sh: strict-warning pass clean"
