#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through.
# The benchmark is a module of its own (bench/go.mod) that reaches the
# repository through a replace directive, so it is built from its directory.
set -euo pipefail
cd "$(dirname "$0")"
exec go run . "$@"
