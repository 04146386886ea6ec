#!/usr/bin/env bash
# Run the whole benchmark once by hand: the four workloads untraced, then
# traced, with the default seed and with one seed nothing was tuned on.
# Results (one JSON line per workload) and the span files land in <out-dir>.
#
#   bench/run.sh <out-dir> [unseen-seed]
set -euo pipefail
out="${1:?usage: bench/run.sh <out-dir> [unseen-seed]}"
unseen="${2:-$(( $(date +%s) % 100000 + 1000 ))}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
# Build once, outside anything timed.
(cd "$here" && go build -o bin/bench .)
cd "$(dirname "$here")"
for seed in 1 "$unseen"; do
	for w in rtmp_fanout hls_poll broadcast_churn simday; do
		echo "== $w seed=$seed untraced" >&2
		"$here/bin/bench" -workload "$w" -seed "$seed" -trace 0 >"$out/$w.seed$seed.json"
		echo "== $w seed=$seed traced" >&2
		"$here/bin/bench" -workload "$w" -seed "$seed" -trace 1 \
			-trace-out "$out/$w.seed$seed.spans.json" >"$out/$w.seed$seed.layers.json"
	done
done
echo "results in $out (unseen seed: $unseen)" >&2
