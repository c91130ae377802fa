"""Corpus-level statistics: per-category counts, size buckets, and the
distance histogram over all matched pairs of the bundled synthetic corpus.

    python3 demos/03_dataset_statistics.py
"""

from pathlib import Path

from annodiff.dataset import load_dataset
from annodiff.matching import match_datasets
from annodiff.report import compute_surface_results
from annodiff.stats import compare, distance_histogram, summarize

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
SRC = FIXTURES / "synthetic_a.json"
TGT = FIXTURES / "synthetic_b.json"


def print_summary(name, s):
    print(f"{name}: {s.image_count} images, {s.instance_count} instances "
          f"({s.crowd_count} crowds), {s.vertex_count} polygon vertices")
    print(f"  per category: {dict(sorted(s.per_category.items()))}")
    print(f"  size buckets: {{{', '.join(f'{k.value}: {v}' for k, v in s.size_buckets.items())}}}")


def main():
    source = load_dataset(SRC)
    target = load_dataset(TGT)

    a = summarize(source)
    b = summarize(target)
    print_summary("source", a)
    print_summary("target", b)

    delta = compare(a, b)
    print(f"\ntarget minus source: {delta.instance_delta:+d} instances, "
          f"{delta.vertex_delta:+d} vertices, "
          f"{delta.categories_where_target_greater} categories grew")

    ms = match_datasets(source, target)
    table = compute_surface_results(ms, source, target, footprint="cross", jobs=1)
    print(f"\n{len(ms.pairs)} matched pairs, {table.measured.sum()} measured")

    # The histogram covers only disagreements beyond one pixel; the noise
    # floor below that is reported as a count, not binned.
    hist = distance_histogram(table, metric="d_avg", bins=12)
    print(f"\nd_avg > 1 px: {hist.included} pairs "
          f"(mean {hist.mean:.3f}, clip at mean+3*std = {hist.clip:.3f})")
    print(f"at or below the 1 px floor: {hist.excluded_below}; beyond clip: {hist.overflow}")
    peak = max(hist.counts) or 1
    for lo, hi, n in zip(hist.edges, hist.edges[1:], hist.counts):
        bar = "#" * round(30 * n / peak)
        print(f"  ({lo:5.3f}, {hi:5.3f}] {n:3d} {bar}")


if __name__ == "__main__":
    main()
