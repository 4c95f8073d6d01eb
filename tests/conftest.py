import stat
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, settings

from incmeter.kb import And, Atom, BOTTOM, Iff, Implies, Not, Or, TOP, parse_kb

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def k4():
    # {x & y, !y}
    return parse_kb("x&&y\n!y")


@pytest.fixture
def k5():
    # {x & y, x | y, z, !x}
    return parse_kb("x&&y\nx||y\nz\n!x")


@pytest.fixture
def k6():
    # {x & !x, y, z}: one formula is contradictory on its own
    return parse_kb("x&&!x\ny\nz")


@pytest.fixture
def k7():
    # {x & y, x | y, !x}
    return parse_kb("x&&y\nx||y\n!x")


@pytest.fixture
def consistent_kb():
    return parse_kb("x=>y\ny<=>z\nx||w")


@pytest.fixture
def empty_kb():
    return parse_kb("")


FAKE_SAT_SOLVER = textwrap.dedent(
    """\
    #!{python}
    import sys
    sys.path[:0] = {path!r}
    from incmeter.solver import parse_dimacs, solve_internal, SolveStatus

    cnf = parse_dimacs(open(sys.argv[1]).read())
    res = solve_internal(cnf)
    if res.status is SolveStatus.SAT:
        print("s SATISFIABLE")
        lits = [v if res.model[v] else -v for v in sorted(res.model)]
        print("v " + " ".join(map(str, lits)) + " 0")
    else:
        print("s UNSATISFIABLE")
    """
)


@pytest.fixture
def fake_solver(tmp_path):
    """An executable that behaves like a standalone DIMACS solver."""
    script = tmp_path / "fakesat"
    script.write_text(FAKE_SAT_SOLVER.format(python=sys.executable, path=list(sys.path)))
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return str(script)


@pytest.fixture
def sleepy_solver(tmp_path):
    """An executable DIMACS solver that never answers within a test's timeout."""
    script = tmp_path / "sleepysat"
    script.write_text(f"#!{sys.executable}\nimport time\ntime.sleep(30)\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return str(script)


def hypothesis_formulas(atoms=("a", "b", "c", "d", "e", "f"), constants=False,
                        max_leaves=10):
    """Strategy producing random formula trees over a small atom pool."""
    import hypothesis.strategies as st

    leaves = st.sampled_from([Atom(name) for name in atoms])
    if constants:
        leaves = leaves | st.sampled_from([TOP, BOTTOM])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub),
            st.builds(Iff, sub, sub),
        ),
        max_leaves=max_leaves,
    )
