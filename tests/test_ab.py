"""The summary arithmetic of ``tests/ab.py``, on canned metric dicts; no run is started."""

import pytest

from ab import Row, derived, format_rows, parse_args, quartiles, summarize


def test_quartiles_are_inclusive_and_one_run_is_its_own_spread():
    assert quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_verbs_are_divided_by_validate_and_less_the_interpreter_of_the_same_run():
    run = {"verb.oracle_ms": 120.0, "verb.validate_ms": 80.0, "cli.interp_ms": 50.0, "wall_s": 1.0}
    got = derived(run)
    assert got == {
        "verb.oracle_ms/validate": 1.5,
        "verb.oracle_ms-interp": 70.0,
        "verb.validate_ms-interp": 30.0,
    }
    assert derived({"wall_s": 1.0}) == {}


def test_wins_count_the_pairs_the_change_is_better_in_and_a_tie_for_neither():
    # "only_some" is left out, as one run lacks it
    parent = [
        {"wall_s": 1.0, "hits": 5.0, "only_some": 1.0},
        {"wall_s": 2.0, "hits": 5.0},
        {"wall_s": 3.0, "hits": 1.0},
    ]
    change = [{"wall_s": 0.5, "hits": 6.0}, {"wall_s": 2.0, "hits": 5.0}, {"wall_s": 4.0, "hits": 0.0}]
    rows = summarize(parent, change, higher_is_better={"hits"})
    assert rows == [
        Row("hits", (3.0, 5.0, 5.0), (2.5, 5.0, 5.5), 1, 3),
        Row("wall_s", (1.5, 2.0, 2.5), (1.25, 2.0, 3.0), 1, 3),
    ]
    table = format_rows(rows).splitlines()
    assert table[2].split()[-2:] == ["1.000", "1/3"]


def test_pairs_are_matched_by_index():
    rows = summarize([{"x": 1.0}, {"x": 10.0}], [{"x": 2.0}, {"x": 9.0}], set())
    assert rows[0].wins == 1
    assert rows[0].parent[1] == pytest.approx(5.5)


@pytest.mark.parametrize("pairs", ["5", "0"])
def test_an_odd_or_empty_number_of_pairs_is_refused(pairs):
    # with an odd count the base would run first once more than the change
    argv = ["--base", "HEAD", "--workload", "w", "--seconds", "1", "--seed", "1", "--label", "x"]
    with pytest.raises(SystemExit):
        parse_args([*argv, "--pairs", pairs])
    assert parse_args([*argv, "--pairs", "4"]).pairs == 4
