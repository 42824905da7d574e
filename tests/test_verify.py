"""Fault injection: every closed form, broken on purpose, fails its check."""

import pytest

from fibpcubes import cli, verify
from fibpcubes.series import TruncatedSeries


def plus_one(value):
    return value + 1


def bump_last_coefficient(series):
    coeffs = series.coeffs[:-1] + (series.coeffs[-1] + series.ring.one,)
    return TruncatedSeries(series.ring, coeffs)


@pytest.mark.parametrize(
    "closed_form, bump, check",
    [
        ("total_edges_closed", plus_one, "counts/size"),
        ("cube_count_closed", plus_one, "cubes/counts"),
        ("dist_cube_count_closed", plus_one, "cubes/distance-counts"),
        ("wiener_closed", plus_one, "indices/wiener"),
        ("mostar_closed", plus_one, "indices/mostar"),
        ("irregularity_closed", plus_one, "irregularity/closed-form"),
        ("rational_gf", bump_last_coefficient, "gf/identities"),
    ],
)
def test_broken_closed_form_fails_its_check(
    monkeypatch, capsys, closed_form, bump, check
):
    original = getattr(verify, closed_form)
    monkeypatch.setattr(
        verify, closed_form, lambda *args, **kwargs: bump(original(*args, **kwargs))
    )
    suite = check.split("/")[0]
    results = verify.run_suite(suite, [1], range(5), order=6)
    assert [r.passed for r in results if r.name == f"{check} p=1"] == [False]

    code = cli.main(["verify", suite, "--p", "1", "--n", "0..4", "--N", "6"])
    assert code == 1
    assert f"FAIL {check} p=1: " in capsys.readouterr().out
