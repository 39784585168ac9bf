import pytest

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_addoption(parser):
    parser.addoption("--cold-caches", action="store_true",
                     help="empty every cache of tautrel before each test, so that "
                          "no result can depend on what an earlier test left there")


@pytest.fixture(autouse=True)
def _cold_caches(request):
    if request.config.getoption("--cold-caches"):
        from tautrel import constraint, obstruction, relations, symbolic

        for cache in (relations._REL_CACHE, constraint._SLICE_CACHE, constraint._REPORT_CACHE):
            cache.clear()
        for cached in (symbolic.symbolic_MN, symbolic._laurent_matrix, obstruction.side_at):
            cached.cache_clear()
    yield


@pytest.fixture
def rc2_zeroed(monkeypatch):
    """A defect of the closed form that zeroes the Rc^2 row of
    relations.tracked_block and changes no other entry: the beta^2
    component of n = 2's coefficients at degree-d monomials reads 0.
    Only Rc^n reads it; Ra^n reads degree d-1 monomials, Rb^n beta^1."""
    from tautrel import relations
    from tautrel.rat import Rat
    from tautrel.tautalg import mono_degree

    linear_form, coefficient = relations._linear_form, relations._exp_coefficient
    n2 = []  # (ell, d) of each n = 2 linear form made

    def remembering(n, d, chi):
        lam, ell = linear_form(n, d, chi)
        if n == 2:
            n2.append((ell, d))
        return lam, ell

    def defective(exp_lam, ell, mono):
        out = coefficient(exp_lam, ell, mono)
        if any(ell is e and mono_degree(mono) == d for e, d in n2):
            return out[:2] + (Rat(0),)
        return out

    monkeypatch.setattr(relations, "_linear_form", remembering)
    monkeypatch.setattr(relations, "_exp_coefficient", defective)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
