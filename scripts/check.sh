#!/usr/bin/env bash
# One-stop local gate: style, tier-1 tests, and the analyzer self-test.
# Mirrors .github/workflows/ci.yml so a green run here means a green CI.
set -euo pipefail
cd "$(dirname "$0")/.."

skipped=()  # gates that could not run: the last line names them

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks examples
else
    echo "== ruff not installed; skipping style check =="
    skipped+=(ruff)
fi

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy (strict overrides: see [[tool.mypy.overrides]] in pyproject.toml) =="
    mypy
else
    echo "== mypy not installed; skipping type check =="
    skipped+=(mypy)
fi

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q

echo "== analyzer self-test =="
PYTHONPATH=src python -m repro lint --selftest

echo "== lint examples =="
for script in examples/*.py examples/*.dml; do
    [ -e "$script" ] || continue
    echo "-- $script"
    PYTHONPATH=src python -m repro lint "$script"
done

echo "== frontend smoke (registry compiles, staged run converges) =="
for app in gnmf pagerank linreg logreg jacobi cf svd powiter ridge; do
    echo "-- lint $app"
    PYTHONPATH=src python -m repro lint "$app" --scale 1e-3 --iterations 2 \
        --factors 4 --rows 200 --features 20
done
PYTHONPATH=src python -m repro run powiter --rows 100 --eps 1e-5 --trace

if [ ${#skipped[@]} -eq 0 ]; then
    echo "All checks passed."
else
    echo "All checks passed (SKIPPED, not installed: ${skipped[*]})."
fi
