"""Turn a span record into the per-layer table.

A span's self time is its duration minus the time its child spans cover.
Calls are strictly nested on the benchmark's single thread, so children never
overlap and the covered time is the plain sum of their durations.  A layer's
self time is the sum of the self times of its spans; the layer is the first
part of a span name (`model.HamiltonianNet.dynamics` belongs to `model`).

Usage: python3 bench/summarise.py SPANS.npz
"""

import sys

import numpy as np


def summarise(names, name_id, start, end, parent):
    """Per-name and per-layer totals from span arrays.

    Returns (by_name, by_layer).  by_name maps a span name to a dict with
    calls, total_s, self_s and durations (a sorted array, seconds);
    by_layer maps a layer to its self_s.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    self_time = dur - covered
    by_name = {}
    by_layer = {}
    for nid, name in enumerate(names):
        mask = name_id == nid
        entry = {
            "calls": int(np.count_nonzero(mask)),
            "total_s": float(dur[mask].sum()),
            "self_s": float(self_time[mask].sum()),
            "durations": np.sort(dur[mask]),
        }
        by_name[name] = entry
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + entry["self_s"]
    return by_name, by_layer


def percentile_ms(durations, q):
    """q-th percentile of a duration array in milliseconds; 0 when empty."""
    if len(durations) == 0:
        return 0.0
    return float(np.percentile(durations, q) * 1e3)


def format_table(by_name, by_layer):
    """Plain-text table: one row per span name, then self time per layer."""
    rows = [f"{'span':48s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} "
            f"{'p50_ms':>9s} {'p95_ms':>9s}"]
    for name in sorted(by_name, key=lambda n: -by_name[n]["self_s"]):
        e = by_name[name]
        rows.append(f"{name:48s} {e['calls']:9d} {e['total_s']:10.4f} "
                    f"{e['self_s']:10.4f} {percentile_ms(e['durations'], 50):9.4f} "
                    f"{percentile_ms(e['durations'], 95):9.4f}")
    rows.append("")
    rows.append(f"{'layer':20s} {'self_s':>10s}")
    for layer in sorted(by_layer, key=lambda k: -by_layer[k]):
        rows.append(f"{layer:20s} {by_layer[layer]:10.4f}")
    return "\n".join(rows) + "\n"


def load(path):
    with np.load(path, allow_pickle=False) as f:
        return summarise(list(f["names"]), f["name_id"], f["start"], f["end"],
                         f["parent"])


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 1
    sys.stdout.write(format_table(*load(argv[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
