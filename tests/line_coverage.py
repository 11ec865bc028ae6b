"""A pytest plugin that fails the session unless every line of ``dqlocus`` ran.

Run the suite with it, from the repository's root::

    PYTHONPATH=src:tests python -m pytest -q -p line_coverage --hypothesis-seed=0

From the moment the plugin loads, before any test module imports the
package, a ``sys.settrace`` tracer records each line that runs in the
package's modules. A line counts once the tracer sees it run, or, for the
first line of a function or class, once it is called. The tracer is
installed again before each test, as a test (hypothesis's explain phase,
say) may replace it. At the end of the session, each line that
``co_lines()`` names in a module's compiled code, nested code included,
and that never ran is listed, and the session fails. It needs nothing but
the standard library.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import CodeType, FrameType
from typing import Any, Iterator

import pytest

#: The package's modules, each with the lines seen to run in it.
PACKAGE = Path(importlib.util.find_spec("dqlocus").origin).parent
RAN: dict[str, set[int]] = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}
MISSED: dict[str, list[int]] = {}


def trace(frame: FrameType, event: str, arg: Any) -> Any:
    """Record the line of each event in a module of the package, and trace
    on in its frames only."""
    lines = RAN.get(frame.f_code.co_filename)
    if lines is None:
        return None
    lines.add(frame.f_lineno)
    return trace


def code_lines(code: CodeType) -> Iterator[int]:
    """The lines ``co_lines()`` names in ``code`` and the code nested in it."""
    yield from (line for _, _, line in code.co_lines() if line)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from code_lines(const)


sys.settrace(trace)


def pytest_runtest_setup(item: pytest.Item) -> None:
    sys.settrace(trace)


def pytest_sessionfinish(session: pytest.Session) -> None:
    sys.settrace(None)
    for path, ran in RAN.items():
        code = compile(Path(path).read_text(encoding="utf-8"), path, "exec", dont_inherit=True)
        if missed := sorted(set(code_lines(code)) - ran):
            MISSED[path] = missed
    if MISSED:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter: Any) -> None:
    if not MISSED:
        terminalreporter.write_line(f"line coverage: every line of the {len(RAN)} modules in {PACKAGE} ran")
        return
    terminalreporter.section("line coverage: lines that never ran", red=True)
    for path, missed in MISSED.items():
        text = Path(path).read_text(encoding="utf-8").splitlines()
        for line in missed:
            terminalreporter.write_line(f"{path}:{line}: {text[line - 1].strip()}")
