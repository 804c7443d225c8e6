"""The claim rule of tools/ab_pairs.py: per-pair wins, quartiles, claim and worse,
and the spread of recorded rounds."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

TEN = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]  # quartiles 12.25 and 16.75: IQR 4.5


def shifted(values, by):
    return [v + by for v in values]


@pytest.mark.parametrize("values,want", [
    ([7.0], (7.0, 7.0, 7.0)),                     # one value: degenerate quartiles
    ([1, 2, 3, 4, 5], (2, 3, 4)),
    ([3, 1, 2], (1.5, 2, 2.5)),                   # order does not matter
    (TEN, (12.25, 14.5, 16.75)),
])
def test_quartiles(values, want):
    assert ab_pairs.quartiles(values) == pytest.approx(want)


@pytest.mark.parametrize("parent,change,lower_is_better,wins,claim,worse", [
    # ties count for neither side
    ([5] * 10, [5] * 10, True, 0, False, False),
    ([2] * 10, [1] * 9 + [2], True, 9, True, False),
    ([2] * 10, [1] * 8 + [2] * 2, True, 8, False, False),
    # a claim needs 9/10 wins and a median gap larger than the parent's IQR
    (TEN, shifted(TEN, -5), True, 10, True, False),
    (TEN, shifted(TEN, -4.5), True, 10, False, False),   # gap equals the IQR
    (TEN, shifted(TEN, -1), True, 10, False, False),
    (TEN, shifted(TEN, -5)[:8] + [20, 20], True, 8, False, False),
    (TEN, shifted(TEN, -5)[:9] + [20], True, 9, True, False),
    # worse is its mirror
    (TEN, shifted(TEN, 5), True, 0, False, True),
    (TEN, shifted(TEN, 4.5), True, 0, False, False),
    (TEN, shifted(TEN, 5)[:8] + [0, 0], True, 2, False, False),
    # higher-is-better metrics flip the sign
    (TEN, shifted(TEN, 5), False, 10, True, False),
    (TEN, shifted(TEN, -5), False, 0, False, True),
    ([2] * 10, [1] * 9 + [2], False, 0, False, True),
])
def test_judge(parent, change, lower_is_better, wins, claim, worse):
    got = ab_pairs.judge(parent, change, lower_is_better)
    assert (got["wins"], got["n"], got["claim"], got["worse"]) == (wins, len(parent), claim, worse)
    for side, values in (("parent", parent), ("change", change)):
        q1, median, q3 = ab_pairs.quartiles(values)
        assert got[side] == (median, q1, q3)


def test_judge_delta_is_relative_to_the_parent_median():
    assert ab_pairs.judge(TEN, shifted(TEN, -5), True)["delta"] == pytest.approx(-5 / 14.5)
    assert ab_pairs.judge([0] * 3, [1] * 3, True)["delta"] == 0.0  # no base: no ratio


def round_of(**metrics):
    """A recorded round with the given (wins, n, delta) per metric."""
    return {"metrics": {name: {"wins": w, "n": n, "delta": d}
                        for name, (w, n, d) in metrics.items()}}


@pytest.mark.parametrize("rounds,want", [
    # one round: its own wins, and a range of one delta
    ([round_of(wall_s=(10, 10, -0.25))], {"wall_s": ([(10, 10)], -0.25, -0.25)}),
    # rounds in order; the range spans every round's delta
    ([round_of(wall_s=(6, 10, 0.01)), round_of(wall_s=(0, 10, 0.03)),
      round_of(wall_s=(2, 10, -0.02))],
     {"wall_s": ([(6, 10), (0, 10), (2, 10)], -0.02, 0.03)}),
    # the last round names the metrics; an earlier round without one is skipped
    ([round_of(wall_s=(9, 10, -0.2), setup_s=(1, 10, 0.5)),
      round_of(wall_s=(10, 12, -0.3)), round_of(wall_s=(8, 10, -0.1), run_ms_p50=(7, 10, 0.0))],
     {"wall_s": ([(9, 10), (10, 12), (8, 10)], -0.3, -0.1),
      "run_ms_p50": ([(7, 10)], 0.0, 0.0)}),
])
def test_spread(rounds, want):
    assert ab_pairs.spread(rounds) == want


def test_record_returns_the_workloads_rounds(tmp_path):
    path = str(tmp_path / "bench.json")
    first, other, second = round_of(wall_s=(1, 2, 0.1)), round_of(), round_of(wall_s=(2, 2, 0.2))
    assert ab_pairs.record(path, "seed_batch", first) == [first]
    assert ab_pairs.record(path, "syn_backlog", other) == [other]
    assert ab_pairs.record(path, "seed_batch", second) == [first, second]


def test_src_lines_counts_newlines_of_python_files_under_src(tmp_path):
    """As `find src -name '*.py' | xargs cat | wc -l` counts: every newline
    of every .py file at any depth under src/, a last line without one not
    counted, and nothing outside src/ or in other files."""
    files = {"src/pkg/__init__.py": "", "src/pkg/a.py": "x = 1\ny = 2\n",
             "src/pkg/sub/b.py": "z = 3\n\nw = 4", "src/pkg/data/rules.txt": "a\nb\n",
             "tools/c.py": "v = 5\n"}
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert ab_pairs.src_lines(str(tmp_path)) == 4
