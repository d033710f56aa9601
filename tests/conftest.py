import inspect
import io
import textwrap
from contextlib import redirect_stderr, redirect_stdout

from triplet.cli import main


def run_cli(argv) -> tuple[int, str, str]:
    """Run ``triplet argv`` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse errors and --help
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def mutant(fn, old: str, new: str):
    """fn recompiled from its source with the one occurrence of `old`
    replaced by `new`, in fn's module namespace: a wrong implementation to
    monkeypatch in where a fast path is written inline."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, (fn.__qualname__, old)
    namespace: dict = {}
    code = compile(source.replace(old, new), inspect.getsourcefile(fn), "exec")
    exec(code, fn.__globals__, namespace)
    return namespace[fn.__name__]


def with_top_entry(cg, delta: int):
    """The `sl2rep.CGChannel` `cg` with `delta` added to the first entry of
    its top column: one changed entry of a Clebsch-Gordan system."""
    (a, x), *rest = cg.columns[0]
    fields = {name: getattr(cg, name) for name in cg.__slots__}
    return type(cg)(**{**fields, "columns": (((a, x + delta), *rest), *cg.columns[1:])})
