#!/usr/bin/env bash
# Telemetry naming lint: every metric the workspace registers follows the
# `harmony_<subsystem>_<what>[_total|_seconds]` convention and lives in a
# preregistering obs module, and every trace span stage is one of the
# preregistered constants in harmony-obs::trace::stage (no ad-hoc stage
# strings at call sites). Run from the repository root; exits non-zero
# with a complaint per violation.
set -euo pipefail

cd "$(dirname "$0")/.."
fail=0

# --- Metric names -----------------------------------------------------
# Registration sites look like `registry.counter("name", "help")` or the
# labeled `registry.counter_with("name", "help", &[...])` family; either
# call may be wrapped across lines by rustfmt, so each file is flattened
# before matching. harmony-obs itself is the registry implementation:
# its unit tests and doctests register deliberately toy names and are
# exempt.
registrations=()
while IFS= read -r file; do
    while IFS= read -r name; do
        registrations+=("$file $name")
    done < <(
        tr '\n' ' ' <"$file" \
            | grep -oE '\.(counter|gauge|histogram)(_with)?\( *"[^"]+"' \
            | sed -E 's/.*"([^"]+)"/\1/'
    )
done < <(find crates -name '*.rs' -path '*/src/*' ! -path 'crates/harmony-obs/*')

for entry in "${registrations[@]}"; do
    file=${entry% *}
    name=${entry#* }
    case "$name" in
    harmony_*) ;;
    *)
        echo "FAIL: metric '$name' in $file does not start with harmony_" >&2
        fail=1
        ;;
    esac
    case "$name" in
    *_total | *_seconds | *_iterations | *_depth | *_entries | *_active | *_parked | *_runs) ;;
    *)
        echo "FAIL: metric '$name' in $file has no conventional unit/kind suffix" >&2
        fail=1
        ;;
    esac
    # Registration must live in a preregistering obs module so every
    # series exists from the first scrape (no appear-on-first-use).
    if ! grep -q 'fn preregister' "$file"; then
        echo "FAIL: metric '$name' registered in $file, which has no preregister()" >&2
        fail=1
    fi
done

[ "${#registrations[@]}" -gt 0 ] || {
    echo "FAIL: found no metric registrations at all (lint broken?)" >&2
    fail=1
}

# --- Span stage names -------------------------------------------------
# The canonical stage set lives in harmony-obs::trace::stage; call sites
# must use those constants, never inline strings, so the CLI trace
# report and this lint agree on spelling.
stage_file=crates/harmony-obs/src/trace.rs
for required in net.read net.rpc serve queue.wait exec.run eval classify \
    warm_start wal.append simplex.step session peer.ship; do
    if ! grep -qE "pub const [A-Z_]+: &str = \"$required\";" "$stage_file"; then
        echo "FAIL: stage '$required' is not preregistered in $stage_file" >&2
        fail=1
    fi
done

# Span-opening calls with a string literal where the stage belongs mean
# someone bypassed the constants (trace.rs itself defines them; its docs
# and tests are exempt).
if grep -rnE '(start_root|continue_from|child)\((ctx, )?"' \
    --include='*.rs' crates | grep -v 'crates/harmony-obs/src/trace.rs'; then
    echo "FAIL: span opened with an inline stage string (use trace::stage::*)" >&2
    fail=1
fi

if [ "$fail" -eq 0 ]; then
    echo "metric/span naming lint: OK (${#registrations[@]} metric registrations checked)"
fi
exit "$fail"
