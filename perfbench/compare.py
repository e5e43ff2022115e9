"""Compare two sets of benchmark records; refuse mismatched hosts.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records that ``run.py`` appends to
``perfbench/out/results.jsonl``.  For every workload, mode and metric
the script prints each side's median, the spread of its runs (the
distance between the quartiles as a share of the median) and the
change of the medians.  Results taken under different host stamps
(core count, BLAS library or thread count, NumPy or Python version,
popcount backend) measure the hosts rather than the program, so the
script refuses to compare them and exits 2.
"""

import collections
import json
import statistics
import sys


def load(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def stamps(records: list) -> set:
    return {json.dumps(r["host"], sort_keys=True) for r in records}


def values(records: list) -> dict:
    out = collections.defaultdict(list)
    for record in records:
        for name, metric in record["metrics"].items():
            key = (record["workload"], record["trace"], name, metric["unit"])
            out[key].append(metric["value"])
    return out


def summary(xs: list) -> tuple:
    """(median, quartile spread as a share of the median)."""
    if len(xs) < 2:
        return xs[0], 0.0
    q1, median, q3 = statistics.quantiles(xs, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__.strip())
        return 2
    base, new = load(argv[1]), load(argv[2])
    if not base or not new:
        print("nothing to compare: a file holds no records")
        return 2
    every = stamps(base) | stamps(new)
    if len(every) != 1:
        print("refusing to compare: the records carry different host "
              "stamps")
        for stamp in sorted(every):
            print(f"  {stamp}")
        return 2
    print(f"host {every.pop()}")
    base_values, new_values = values(base), values(new)
    for key in sorted(set(base_values) & set(new_values)):
        workload, trace, name, unit = key
        b_median, b_spread = summary(base_values[key])
        n_median, n_spread = summary(new_values[key])
        change = (f"{(n_median - b_median) / b_median:+.1%}"
                  if b_median else "n/a")
        print(f"{workload:24s} {trace} {name:34s} "
              f"{b_median:12.6g} ({b_spread:5.1%}, n={len(base_values[key])})"
              f"  {n_median:12.6g} ({n_spread:5.1%}, "
              f"n={len(new_values[key])})  {change:>7s} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
