"""Every case pool of the benchmark certifies, and length-scaled copies agree.

The benchmark draws its cases from the pools in ``certbench/cases.py`` and
counts a failing op as a fault of the program, so each pool member must
certify.  The pools are read from that file, never edited.
"""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

from modecert import certify as cf, cli, layered as ly

from conftest import fp_problem

_SPEC = importlib.util.spec_from_file_location(
    "certbench_cases", Path(__file__).resolve().parents[1] / "certbench" / "cases.py")
cases = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cases)


@functools.lru_cache(maxsize=None)
def lossy_report(n_mirror: complex, L: float):
    scenario = cli.parse_scenario(cases.lossy_scenario(n_mirror, L))
    return cf.classify(cli._problem_from_scenario(scenario))


def test_mirror_pool_certifies():
    for n in cases.MIRROR_POOL:
        rep = cf.classify(fp_problem(n))
        assert rep.multi_pole_mm == (rep.n_star > 1), n


@pytest.mark.parametrize("n_mirror", cases.LOSSY_MIRRORS, ids=str)
@pytest.mark.parametrize("L", cases.LENGTH_POOL)
def test_lossy_length_copies_agree(n_mirror, L):
    base, copy = lossy_report(n_mirror, 1.0), lossy_report(n_mirror, L)
    assert copy.flags() == base.flags()
    assert copy.n_star == base.n_star
    for key in ("omega_min", "omega_a_zero", "re_main_pole", "kappa_main"):
        a, b = getattr(base, key), L * getattr(copy, key)
        assert abs(a - b) <= 1e-9 * abs(a), key


@pytest.mark.parametrize("mode_index", cases.XRAY_MINIMA)
def test_xray_pool_certifies(mode_index):
    # the bare problem at the rocking minimum: classify picks its own window
    rep = cf.classify(cf.xray_problem(ly.default_material_table_path(), mode_index))
    assert rep.multi_pole_mm == (rep.n_star > 1)
