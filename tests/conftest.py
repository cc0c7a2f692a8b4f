"""Shared fixtures, and one PASS/FAIL line per acceptance criterion after the run."""

import os
import signal
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# generous: the slowest test takes about 25 s
TEST_TIME_LIMIT_S = 300

_RESULTS = {}


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT_S, so a computation that
    never ends fails its test instead of hanging the whole run."""

    def expire(signum, frame):
        pytest.fail(f"test ran past {TEST_TIME_LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def nodalq_on_path(tmp_path_factory):
    """Put a ``nodalq`` launcher first on PATH for subprocesses.

    The launcher is the one an installer writes for the ``nodalq`` entry
    of ``[project.scripts]`` in pyproject.toml, so a renamed, removed or
    broken entry point fails here as it would after ``pip install``.
    PYTHONPATH leads with the directory holding the ``nodalq`` package
    under test, so the subprocess runs this code, from any cwd, and not
    some other installed copy.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["nodalq"]
    module, attr = target.split(":")
    bindir = tmp_path_factory.mktemp("bin")
    launcher = bindir / "nodalq"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n",
        encoding="utf-8",
    )
    launcher.chmod(0o755)

    import nodalq

    package_parent = Path(nodalq.__file__).resolve().parent.parent
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PATH", str(bindir), prepend=os.pathsep)
        mp.setenv("PYTHONPATH", str(package_parent), prepend=os.pathsep)
        yield


def pytest_runtest_logreport(report):
    name = report.nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return
    # the call phase decides, but a failed setup or teardown is a failure too
    num = int(name.split("_")[2])
    if (report.when == "call" or not report.passed) and _RESULTS.get(num) != "failed":
        _RESULTS[num] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_RESULTS):
        word = {"passed": "PASS", "skipped": "SKIP"}.get(_RESULTS[num], "FAIL")
        terminalreporter.write_line(f"criterion {num}: {word}")
