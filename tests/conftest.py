import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from triplet.cli import main

# The verify properties are plain asserts in library code; rewrite them so
# that a failing one reports the compared values, as a test's own assert does.
pytest.register_assert_rewrite("triplet.verify")


def run_cli(argv) -> tuple[int, str, str]:
    """Run ``triplet argv`` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse errors and --help
        code = exc.code
    return code, out.getvalue(), err.getvalue()
