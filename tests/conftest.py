import pytest

from tautrel import cli, constraint, obstruction, relations, symbolic

ACCEPTANCE_LINES = []

# every cache of tautrel, which --cold-caches empties: the module-level
# *_CACHE dicts and the lru_caches (test_layout checks that none is missing)
CACHES = (relations._REL_CACHE, constraint._SLICE_CACHE, constraint._REPORT_CACHE,
          symbolic.symbolic_MN, symbolic._laurent_matrix, obstruction.side_at,
          cli.build_parser)


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_addoption(parser):
    parser.addoption("--cold-caches", action="store_true",
                     help="empty every cache of tautrel before each test, so that "
                          "no result can depend on what an earlier test left there")


def clear_caches(keep=None) -> None:
    """Empty every cache of CACHES but keep."""
    for cache in CACHES:
        if cache is not keep:
            (cache.cache_clear if hasattr(cache, "cache_clear") else cache.clear)()


@pytest.fixture(autouse=True)
def _cold_caches(request):
    if request.config.getoption("--cold-caches"):
        clear_caches()
    yield


@pytest.fixture
def uncached_laurent_matrix(monkeypatch):
    """symbolic expands the Laurent matrix on every call, so that a
    patched closed form reaches relations.tracked_block and symbolic_MN.
    Every cache is emptied before and after the test, so that no answer
    of the patched form is read before it or outlives it."""
    monkeypatch.setattr(symbolic, "_laurent_matrix", symbolic._laurent_rows)
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def rc2_zeroed(monkeypatch, uncached_laurent_matrix):
    """A defect of the closed form that zeroes the Rc^2 row of
    relations.tracked_block and changes no other entry: the beta^2
    component of n = 2's coefficients at degree-d monomials reads 0.
    Only Rc^n reads it; Ra^n reads degree d-1 monomials, Rb^n beta^1."""
    from tautalg_oracle import mono_degree
    from tautrel import symbolic
    from tautrel.tautalg import LARGE

    exponent, coefficient = symbolic._exponent, symbolic._coefficient
    n2 = []  # each exponent of n = 2 made

    def remembering(n):
        form = exponent(n)
        if n == 2:
            n2.append(form)
        return form

    def defective(scalar, form, large, small):
        den, series = coefficient(scalar, form, large, small)
        # the large generator of LARGE[i] has degree d - i
        degree_d = mono_degree(small) == next(i for i, g in enumerate(LARGE) if large in g)
        if degree_d and any(form is f for f in n2):
            return den, series[:2] + ({},)
        return den, series

    monkeypatch.setattr(symbolic, "_exponent", remembering)
    monkeypatch.setattr(symbolic, "_coefficient", defective)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
