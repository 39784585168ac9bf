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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
