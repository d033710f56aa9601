"""Command-line front end: exact JSON/DOT reports plus the verify runner.

This is the one module that knows the output formats: the library layers
return values, and the private ``_*_json`` and ``_diagram_dot`` helpers
here write them.  Every exit code is listed once, in EXIT_CODES.  `verify`
runs the same checks under `python -O`.  Output depends on argv alone:
same argv, byte-identical bytes, whatever the environment.

Only the fraction-free `base` loads with this module, never `fractions`.
Each subcommand imports the layers it runs when it is called, the label
layer `virasoro` included, once per call and never once per output item, so
a call pays for no layer it does not use.  Every rational of `weights` and
`kac-diagram` is written from the integer numerators of the label layer
through `base.ratio_str`, as `sl2` writes its cells, and `decompose` and
`o0-check` write `int` weights, so these, `fuse-L` and `fuse-C` never load
the Fraction stack (`fractions` with its `decimal` and `numbers`).  Only
`hexagon`, `braiding` and `verify`, whose values are phases and F-matrices,
load it, through `braidfmat`, and they write each `Fraction` with `str`.
Every option is defined once, in COMMANDS, with the `cost` of a call, which
bounds what it builds and writes from its integers alone; a call over
MAX_BUILT_BYTES or MAX_OUTPUT_BYTES is refused before any layer is
imported.  A well-formed call is parsed from that table by `_parse_known`
and never imports argparse; help, usage and every argument error still come
from argparse, byte for byte, through `build_parser`, which builds the
arguments of the one subcommand named (`--help` still lists all ten).  JSON
is written by this module's one writer, `_write_json`, byte-equal to
``json.dumps(payload, indent=2)``, so the `json` package is never loaded.
It writes every payload a bounded piece at a time and never holds a
payload's whole text.  `sl2` hands it matrices by their nonzero cells
(`_Sparse`), so such a call takes memory in proportion to the nonzero cells
and time in proportion to its output.
"""

from __future__ import annotations

import os
import sys
from _json import encode_basestring_ascii
from math import gcd
from types import SimpleNamespace

from .base import UnsupportedObjectError, ratio_str

PQ_PRESETS = {
    "2,3": (2, 3),  # critical percolation
    "3,4": (3, 4),
    "2,5": (2, 5),
}

# Every exit code of `triplet`, by name; README's list of exit codes is
# checked against this table.
EXIT_CODES = {
    "ok": 0,
    # A `verify` property failed.
    "failed": 1,
    # An argument or validation failure (argparse's own usage errors exit 2
    # too), a request over the budget, or one too large for memory.
    "invalid": 2,
    # A structurally unsupported request, e.g. the Loewy diagram of a
    # general Kac label.
    "unsupported": 3,
    # The reader of stdout closed the pipe before everything was written,
    # as in `triplet verify --suite all | head -1`.
    "broken_pipe": 4,
    # Any other exception: a fault in `triplet` itself, reported in one line.
    "internal": 5,
}


class _Sparse:
    """A matrix of str cells that `_write_json` writes as its dense list of
    rows: `shape` is (rows, columns), and `rows` maps a row index to the
    {column: str} dict of that row's cells; every cell left out is "0"."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape: tuple[int, int], rows: dict[int, dict[int, str]]) -> None:
        self.shape = shape
        self.rows = rows


# The most cells that one piece of a `_Sparse` matrix's text holds.
_PIECE_CELLS = 1 << 16


def _runs(text: str, count: int, per_piece: int):
    """`text` repeated `count` times, at most `per_piece` times a piece."""
    for start in range(0, count, per_piece):
        yield text * min(per_piece, count - start)


def _drop_comma(pieces):
    """`pieces` without the comma that starts the first one."""
    pieces = iter(pieces)
    yield next(pieces)[1:]
    yield from pieces


def _sparse_items(matrix: _Sparse, indent: str):
    """The rows of `matrix` as the items of a JSON list at `indent`, each
    after "," + indent, in pieces of at most _PIECE_CELLS cells: a nonzero
    cell is one piece, and so is a run of zero cells, or of zero rows,
    written as one repeated text."""
    n_rows, cols = matrix.shape
    cell = indent + "  "
    zero = "," + cell + '"0"'

    def cells(entries: dict[int, str]):
        done = 0
        for j in sorted(entries):
            yield from _runs(zero, j - done, _PIECE_CELLS)
            yield "," + cell + encode_basestring_ascii(entries[j])
            done = j + 1
        yield from _runs(zero, cols - done, _PIECE_CELLS)

    def item(entries: dict[int, str]):
        yield "," + indent + "["
        yield from _drop_comma(cells(entries))
        yield indent + "]"

    zero_row = "".join(item({})) if cols <= _PIECE_CELLS else None
    done = 0
    for r in [*sorted(matrix.rows), n_rows]:
        if zero_row is None:
            for _ in range(done, r):
                yield from item({})
        else:
            yield from _runs(zero_row, r - done, _PIECE_CELLS // cols)
        if r < n_rows:
            yield from item(matrix.rows[r])
        done = r + 1


def _write_json(value, write, indent: str = "\n") -> None:
    """Write `value` through `write`, byte-equal to json.dumps(value,
    indent=2), with a `_Sparse` matrix in place of its dense list of rows.

    Only str, int, bool, None, list, str-keyed dict and `_Sparse` are
    written; any other value, a float above all, raises TypeError.  Strings
    are escaped by the C routine that json.dumps itself uses.  The text goes
    out a piece at a time (a scalar, the start of an item, a closing bracket,
    at most _PIECE_CELLS matrix cells), so no more of it is held at once.
    """
    kind = type(value)
    if kind is str:
        write(encode_basestring_ascii(value))
    elif kind is int:
        write(int.__repr__(value))
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif value is None:
        write("null")
    elif kind is list:
        sep = "["
        for item in value:
            write(sep + indent + "  ")
            _write_json(item, write, indent + "  ")
            sep = ","
        write("[]" if sep == "[" else indent + "]")  # an empty list: "[]"
    elif kind is dict:
        sep = "{"
        for key, item in value.items():
            write(sep + indent + "  " + encode_basestring_ascii(key) + ": ")
            _write_json(item, write, indent + "  ")
            sep = ","
        write("{}" if sep == "{" else indent + "}")  # an empty dict: "{}"
    elif kind is _Sparse:
        n_rows, cols = value.shape
        if not (n_rows and cols):  # [] or rows of []
            _write_json([[] for _ in range(n_rows)], write, indent)
            return
        write("[")
        for piece in _drop_comma(_sparse_items(value, indent + "  ")):
            write(piece)
        write(indent + "]")
    else:
        raise TypeError(f"no exact JSON form for {kind.__name__}: {value!r}")


def _emit(payload: dict) -> None:
    _write_json(payload, sys.stdout.write)
    sys.stdout.write("\n")


def _pq(args) -> tuple[int, int]:
    """(p, q) from --pq-preset or --p and --q, not yet checked by `Params`."""
    if args.pq_preset:
        if args.p is not None or args.q is not None:
            raise ValueError("--pq-preset conflicts with explicit --p/--q")
        return PQ_PRESETS[args.pq_preset]
    if args.p is None or args.q is None:
        raise ValueError("missing --p/--q (or use --pq-preset)")
    return args.p, args.q


def _resolve_params(args):
    from .virasoro import Params

    return Params(*_pq(args))


def _obj_json(obj) -> dict:
    if obj.label is None:  # K'_{1,1}
        return {"kind": obj.kind}
    return {"kind": obj.kind, "label": [obj.label.r, obj.label.s]}


def _cmd_weights(args) -> int:
    from .virasoro import VirLabel, canonical_label, central_charge_numerator, weight_numerator

    params = _resolve_params(args)
    pq = params.p * params.q
    lbl = VirLabel(args.r, args.s)
    can = canonical_label(params, lbl)
    _emit(
        {
            "c": ratio_str(central_charge_numerator(params), pq),
            "h": ratio_str(weight_numerator(params, lbl), 4 * pq),
            "canonical": [can.r, can.s],
        }
    )
    return 0


def _cmd_fuse_l(args) -> int:
    from . import fusion

    params = _resolve_params(args)
    result = fusion.fuse_L_family(params, args.m, args.n)
    _emit({"entries": [{"mult": e.mult, "obj": _obj_json(e.obj)} for e in result.entries]})
    return 0


def _cmd_fuse_c(args) -> int:
    from . import fusion

    channels = fusion.fuse_C(args.m, args.n)
    _emit({"entries": [{"mult": 1, "obj": {"kind": "Ln", "n": k}} for k in channels]})
    return 0


def _diagram_args_to_mn(params, args) -> tuple[int, int]:
    from . import kacmod
    from .virasoro import VirLabel

    if args.r is not None or args.s is not None:
        if args.m is not None or args.n is not None:
            raise ValueError("give either --m/--n or --r/--s, not both")
        if args.r is None or args.s is None:
            raise ValueError("--r and --s must be given together")
        mn = kacmod.mm_nn_indices(params, VirLabel(args.r, args.s))
        if mn is None:
            raise UnsupportedObjectError(
                f"no Loewy diagram available for the general Kac label K_{{{args.r},{args.s}}}"
            )
        return mn
    if args.m is None or args.n is None:
        raise ValueError("missing --m/--n")
    return args.m, args.n


def _diagram_dot(diagram, weights: list[str]) -> str:
    """A Loewy diagram as DOT, rank-grouped by layer; `weights` are the
    nodes' conformal weights as written by `ratio_str`."""
    lines = ["digraph loewy {", "  rankdir=TB;"]
    for layer in ("top", "middle", "socle"):
        ids = [n.id for n in diagram.nodes if n.layer == layer]
        if ids:
            lines.append("  { rank=same; " + "; ".join(f'"{i}"' for i in ids) + "; }")
    for node, hs in zip(diagram.nodes, weights):
        lines.append(f'  "{node.id}" [label="L_{{{node.label.r},{node.label.s}}} (h={hs})"];')
    for src, dst in diagram.edges:
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_kac_diagram(args) -> int:
    from . import kacmod
    from .virasoro import weight_numerator

    params = _resolve_params(args)
    m, n = _diagram_args_to_mn(params, args)
    diagram = kacmod.kac_mm_nn_diagram(params, m, n)
    four_pq = 4 * params.p * params.q
    weights = [ratio_str(weight_numerator(params, node.label), four_pq) for node in diagram.nodes]
    if args.format == "dot":
        sys.stdout.write(_diagram_dot(diagram, weights))
        return 0
    _emit(
        {
            "module": {"kind": "KacK", "label": [m * params.p - 1, n * params.q - 1]},
            "m": m,
            "n": n,
            "nodes": [
                {
                    "id": node.id,
                    "label": [node.label.r, node.label.s],
                    "layer": node.layer,
                    "h": h,
                }
                for node, h in zip(diagram.nodes, weights)
            ],
            "edges": [[src, dst] for src, dst in diagram.edges],
        }
    )
    return 0


def _monomial_str(c: str, e: int) -> str:
    """c*t^e for e in {-1, 0, 1}, given c as written by `str`: "0",
    "-1/2", "t", "-t", "-3/4*t" or "(-3/4)/(t)"."""
    if c == "0" or not e:
        return c
    if e < 0:
        return f"({c})/(t)"
    return "t" if c == "1" else "-t" if c == "-1" else f"{c}*t"


def _fmatrix_json(entries, exponents=((0, 0), (0, 0))) -> list[list[str]]:
    """The F-matrix of `entries`, (F00, F02, F20, F22) as written by
    `str`, with entry (i, j) printed as the monomial c*t^exponents[i][j]."""
    f00, f02, f20, f22 = entries
    (e00, e02), (e20, e22) = exponents
    return [
        [_monomial_str(f00, e00), _monomial_str(f02, e02)],
        [_monomial_str(f20, e20), _monomial_str(f22, e22)],
    ]


T_MAX_CHARS = 100
T_MAX_EXPONENT = 100
# Every integer option is capped at this many characters before it is
# parsed, so a huge value is refused by its length alone: its digits are
# never converted, and never echoed back in the message.
INT_MAX_CHARS = 100


def _int_arg(text: str) -> int:
    """The `type` of every integer option: int(text), capped at INT_MAX_CHARS."""
    if len(text) > INT_MAX_CHARS:
        import argparse

        # argparse prefixes "argument --NAME: " and exits 2.
        raise argparse.ArgumentTypeError(f"integer is longer than {INT_MAX_CHARS} characters")
    return int(text)


# argparse reports a malformed value as "invalid <__name__> value: ...";
# keep the message of the plain `int` type.
_int_arg.__name__ = "int"


def _parse_t(text: str):
    """`hexagon --t` as a nonzero Fraction; its size is capped before parsing."""
    from fractions import Fraction

    if len(text) > T_MAX_CHARS:
        raise ValueError(f"--t is longer than {T_MAX_CHARS} characters")
    _, has_exp, exponent = text.lower().partition("e")
    try:
        too_big = bool(has_exp) and abs(int(exponent)) > T_MAX_EXPONENT
    except ValueError:
        too_big = False  # not an integer exponent: Fraction rejects it below
    if too_big:
        raise ValueError(
            f"--t exponent is outside [-{T_MAX_EXPONENT}, {T_MAX_EXPONENT}]: {text!r}"
        )
    try:
        t0 = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--t is not a rational number: {text!r}") from None
    if t0 == 0:
        raise ValueError("--t must be nonzero")
    return t0


def _cmd_hexagon(args) -> int:
    params = _resolve_params(args)
    t0 = None if args.t is None else _parse_t(args.t)
    from . import braidfmat

    solutions = braidfmat.hexagon_solutions(params)
    payload = {
        "epsilon": solutions[0].epsilon,
        "solutions": [],
        "residual_zero": True,
    }
    for sol in solutions:
        residual = braidfmat.hexagon_residual(params, sol.matrix)
        zero = not any(residual.entries())
        payload["residual_zero"] = payload["residual_zero"] and zero
        entry = {
            "kind": sol.kind,
            "F": _fmatrix_json(map(str, sol.matrix.entries()), braidfmat.GAUGE_EXPONENTS),
            "intrinsic_dimension": str(braidfmat.intrinsic_dimension(sol)),
        }
        if t0 is not None:
            entry["F_at_t"] = _fmatrix_json(map(str, sol.matrix.evaluate(t0).entries()))
        payload["solutions"].append(entry)
    if t0 is not None:
        payload["t"] = str(t0)
    _emit(payload)
    return 0


def _cmd_braiding(args) -> int:
    params, n = _resolve_params(args), args.n
    if n < 0:
        raise ValueError(f"--n must be >= 0, got {n}")
    from . import braidfmat, fusion

    # Every exponent is one of 0, 1/2, 1 and 3/2, so each {"exp": ...} is
    # built once and shared by every channel that has it, as is each
    # channel's key; the bytes written are the same.
    shared: dict = {}

    def phase_json(phase) -> dict:
        exp = phase.exponent
        key = exp.numerator, exp.denominator  # a Fraction hashes slower
        out = shared.get(key)
        if out is None:
            out = shared[key] = {"exp": str(exp)}
        return out

    channels = fusion.fuse_C(n, n)
    keys = [str(k) for k in channels]
    balancing = braidfmat.balancing_check(params, n)
    payload = {
        "n": n,
        "channels": channels,
        "formula": {
            key: phase_json(braidfmat.r_scalar_formula(params, n, k))
            for key, k in zip(keys, channels)
        },
    }
    if n == 1:
        payload["table"] = {
            str(k): phase_json(braidfmat.r_scalar_table(params, 1, k)) for k in (0, 2)
        }
        payload["conventions_differ_by_sign"] = all(
            braidfmat.r_scalar_table(params, 1, k)
            == braidfmat.Phase(braidfmat.r_scalar_formula(params, 1, k).exponent + 1)
            for k in (0, 2)
        )
        payload["note"] = (
            "tabulated and formula R-scalars differ by an overall sign; "
            "both conventions square to the balancing phases"
        )
    payload["balancing"] = {key: phase_json(balancing[k]) for key, k in zip(keys, channels)}
    _emit(payload)
    return 0


def _graded_json(entries, args) -> dict:
    rows = []
    for e in entries:
        row = {} if e.psl2 is None else {"psl2": e.psl2}
        row.update(mult=e.mult, obj=_obj_json(e.obj), h=str(e.lowest_weight))
        rows.append(row)
    return {"target": args.target, "n_max": args.nmax, "entries": rows}


def _cmd_decompose(args) -> int:
    from . import wpq

    params = _resolve_params(args)
    decompose = {
        "wpq": wpq.decompose_wpq,
        "wpq-equivariant": wpq.decompose_wpq_equivariant,
        "ideal": wpq.decompose_ideal,
        "wprime": wpq.decompose_wprime,
    }[args.target]
    _emit(_graded_json(decompose(params, args.nmax), args))
    return 0


def _cmd_o0_check(args) -> int:
    from . import wpq

    params = _resolve_params(args)
    rows = [
        {"n": n, "difference": str(diff), "integral": flag}
        for n, diff, flag in wpq.o0_weight_identity(params, args.nmax)
    ]
    _emit({"n_max": args.nmax, "rows": rows})
    return 0


def _cmd_sl2(args) -> int:
    from . import sl2rep

    n, op = args.n, args.op
    if n < 0:
        raise ValueError(f"--n must be >= 0, got {n}")
    if op == "cg":
        m, k = args.m, args.k
        if m is None or k is None:
            raise ValueError("--op cg requires --m and --k")
        sl2rep.check_channel(m, n, k)
    # Only the nonzero cells are built, as text, before the first byte is
    # written; `_write_json` fills in the zeros a piece at a time.
    if op == "irrep":
        rep = sl2rep.build_irrep(n)
        shape = (n + 1, n + 1)
        payload = {
            "n": n,
            "E": _Sparse(shape, {k: {k + 1: str(x)} for k, x in enumerate(rep.e)}),
            "F": _Sparse(shape, {k + 1: {k: "1"} for k in range(n)}),
            "H": _Sparse(shape, {k: {k: str(x)} for k, x in enumerate(rep.h)}),
        }
    elif op == "form":
        signs = sl2rep.invariant_form(n).signs
        b = {i: {n - i: str(x)} for i, x in enumerate(signs)}
        payload = {"n": n, "B": _Sparse((n + 1, n + 1), b)}
    else:
        cg = sl2rep.cg_maps(m, n, k)
        dim = (m + 1) * (n + 1)
        columns = cg.inclusion_columns()
        proj = {
            r: {i: ratio_str(x * cg.big, cg.scale) for i, x in row.items()}
            for r, row in enumerate(cg.projection_rows(columns))
        }
        incl: dict[int, dict[int, str]] = {}
        for j, column in enumerate(columns):
            for i, x in column.items():
                incl.setdefault(i, {})[j] = ratio_str(x, cg.big)
        payload = {
            "m": m,
            "n": n,
            "k": k,
            "projection": _Sparse((k + 1, dim), proj),
            "inclusion": _Sparse((dim, k + 1), incl),
        }
    _emit(payload)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    names = args.suite or ["all"]
    if "all" in names:
        names = list(verify.PROPERTIES)
    else:
        names = list(dict.fromkeys(names))
    results = verify.run_suites(names)
    failures = 0
    for suite, (prop, ok, detail) in results:
        if ok:
            sys.stdout.write(f"ok   {suite}.{prop}\n")
        else:
            failures += 1
            sys.stdout.write(f"FAIL {suite}.{prop}: {detail}\n")
    sys.stdout.write(
        f"{len(results) - failures}/{len(results)} properties passed"
        + (f", {failures} failed\n" if failures else "\n")
    )
    return EXIT_CODES["failed" if failures else "ok"]


class _Suites:
    """The choices of `verify --suite`: "all", then the registry's suites.
    The registry is read when the choices are, so only a `verify` call (or
    its help or error) loads it."""

    def __iter__(self):
        from . import verify

        return iter(["all", *sorted(verify.PROPERTIES)])


# `main` refuses a call whose COMMANDS `cost` (built, written) is over
# either budget: `built` bounds the text the handler builds as Python values
# (all of a list payload, only the nonzero cells of an `sl2` matrix), and
# `written` all of stdout.  `fuse-L`, the costliest per byte built, with
# `fuse-C`, `decompose` and `o0-check` close behind, sets MAX_BUILT_BYTES
# (README, "CLI").
MAX_BUILT_BYTES = 9_000_000
MAX_OUTPUT_BYTES = 1_200_000_000


def _chars(bits: int) -> int:
    """The most characters of str(x) for |x| < 2**bits: log10(2) < 0.30103."""
    return bits * 30103 // 100000 + 2


def _valid_pq(args) -> tuple[int, int]:
    """(p, q) where `_resolve_params` takes them, else (0, 0)."""
    try:
        p, q = _pq(args)
    except ValueError:
        return 0, 0
    return (p, q) if min(p, q) > 1 and gcd(p, q) == 1 else (0, 0)


def _listed(ok, count: int, entry: int, head: int) -> tuple[int, int]:
    """A list payload of `count` entries of at most `entry` bytes, built whole;
    (0, 0) where the handler refuses its arguments itself (`ok` false)."""
    size = head + count * entry if ok else 0
    return size, size


def _fixed_cost(args) -> tuple[int, int]:
    return 8192, 8192  # `weights`, `hexagon` (--t is capped) and `verify`


def _fuse_c_cost(args) -> tuple[int, int]:
    m, n = args.m, args.n
    return _listed(min(m, n) >= 0, min(m, n) + 1, 90 + _chars((m + n).bit_length()), 22)


def _fuse_l_cost(args) -> tuple[int, int]:
    (p, _), m, n = _valid_pq(args), args.m, args.n
    label = _chars(((m + n) * p).bit_length())  # L_{(k+2)p-1,1}, k <= m+n-4
    return _listed(p and min(m, n) >= 2, min(m, n) - 1, 134 + label, 22)


def _kac_diagram_cost(args) -> tuple[int, int]:
    (p, q), m, n, r, s = _valid_pq(args), args.m, args.n, args.r, args.s
    if p and None not in (r, s) and (m, n) == (None, None) and (r + 1) % p == (s + 1) % q == 0:
        m, n = (r + 1) // p, (s + 1) // q
    elif (r, s) != (None, None) or None in (m, n):
        m = n = 0
    # 4n-2 nodes and 8n-6 edges at most; a node's label is at most
    # (m+n+1)max(p,q), its name holds it (twice in DOT), and its weight is
    # N/4 with |N| <= 4(m+n+1)^2 pq.
    label = _chars(((m + n + 1) * max(p, q)).bit_length())
    name = 4 + 2 * label
    node = 176 + 6 * name + 2 * label + _chars((4 * (m + n + 1) ** 2 * p * q).bit_length())
    return _listed(p and 2 <= n <= m, 4 * n - 2, node, 150 + 4 * label)


def _braiding_cost(args) -> tuple[int, int]:
    (p, _), n = _valid_pq(args), args.n
    # Channel k <= 2n: k and two exponents, each 0, 1/2, 1 or 3/2.
    channel = 72 + 3 * _chars((2 * n).bit_length()) + 12
    return _listed(p and n >= 0, n + 1, channel, 330 + _chars(n.bit_length()))


def _decompose_cost(args) -> tuple[int, int]:
    (p, q), n = _valid_pq(args), args.nmax
    # Entry i <= n: 2i-2, 2i-1, the label 2ip-1 and the weight (ip-1)(iq-1).
    entry = 160 + 2 * _chars((2 * n).bit_length()) + _chars((2 * n * p).bit_length())
    entry += _chars((n * n * p * q).bit_length())
    return _listed(p and n >= (1 if args.target == "ideal" else 2), n, entry, 100)


def _o0_check_cost(args) -> tuple[int, int]:
    (p, q), n = _valid_pq(args), args.nmax
    # Row i <= n: i and the integer (ip-1)(iq-2).
    row = 75 + _chars(n.bit_length()) + _chars((n * n * p * q).bit_length())
    return _listed(p and n >= 2, n - 1, row, 40 + _chars(n.bit_length()))


def _binom_bits(x: int, y: int) -> int:
    """A bit count b with C(x, y) < 2**b, from bit lengths alone: C(x, y) is
    at most 2^x and at most x^min(y, x-y)."""
    return min(x, min(y, x - y) * x.bit_length()) + 1


def _sl2_cost(args) -> tuple[int, int]:
    n, m, k = args.n, args.m, args.k
    if args.op != "cg":
        # E, F and H hold 3n+1 nonzero cells, each below (n+1)^2; B n+1 signs.
        count = 3 if args.op == "irrep" else 1
        shapes, cells = [(n + 1, n + 1)] * count, count * (n + 1)
        cell = _chars(2 * (n + 1).bit_length())
    elif None in (m, k) or (m + n - k) % 2 or not abs(m - n) <= k <= m + n:
        return 0, 0
    else:
        # Over the denominator C(m, s), inclusion cell (a, b) of column j is
        # N = sum_z (-1)^z C(j, a-z) C(n-b, z) C(m-a, s-z), below 2^(k+s) and
        # at most (k+s)^k, and a projection cell is N C(m, s) over
        # C(k, m-s) C(k+s+1, s) (README, "sl2 linear algebra").  Each is
        # reduced, so it is at most as long as these.  A matrix has at most
        # (k+1)(min(m,n)+1) nonzero cells; `cell` is one inclusion cell, one
        # projection cell and one cell's 12 bytes of layout.
        s = (m + n - k) // 2
        n_bits = min(k + s, k * (k + s).bit_length()) + 1
        d_bits = _binom_bits(m, s)
        pair_bits = _binom_bits(k, m - s) + _binom_bits(k + s + 1, s)
        dim = (m + 1) * (n + 1)
        shapes, cells = [(k + 1, dim), (dim, k + 1)], (k + 1) * (min(m, n) + 1)
        cell = 12 + _chars(n_bits) + _chars(d_bits) + _chars(n_bits + d_bits) + _chars(pair_bits)
    if n < 0:
        return 0, 0
    built = cells * (12 + cell)
    # A zero cell takes 11 bytes, and a row 13 more.
    dense = sum(rows * (13 + 11 * cols) for rows, cols in shapes)
    return built, 100 + 3 * _chars(max(shapes[0]).bit_length()) + dense + built


_PQ = (
    ("--p", {"type": _int_arg, "default": None, "help": "first member of the coprime pair"}),
    ("--q", {"type": _int_arg, "default": None, "help": "second member of the coprime pair"}),
    (
        "--pq-preset",
        {
            "choices": sorted(PQ_PRESETS),
            "default": None,
            "help": "preset (p,q) pair; 2,3 is the critical-percolation case",
        },
    ),
)
_REQUIRED_INT = {"type": _int_arg, "required": True}
_OPTIONAL_INT = {"type": _int_arg, "default": None}

# name -> (help line, options, handler, cost), in the order --help lists
# them.  Each option is (flag, add_argument keywords); the keywords are only
# `type`, `choices`, `required`, `default`, `action="append"` and `help`,
# which both `build_parser` and `_parse_known` read.
COMMANDS = {
    "weights": (
        "central charge, conformal weight, canonical label",
        (*_PQ, ("--r", _REQUIRED_INT), ("--s", _REQUIRED_INT)),
        _cmd_weights,
        _fixed_cost,
    ),
    "fuse-L": (
        "fusion of L_{mp-1,1} with L_{np-1,1}",
        (*_PQ, ("--m", _REQUIRED_INT), ("--n", _REQUIRED_INT)),
        _cmd_fuse_l,
        _fuse_l_cost,
    ),
    "fuse-C": (
        "sl2-type fusion channels of L_m with L_n",
        (
            ("--m", {**_REQUIRED_INT, "help": "index m of L_m"}),
            ("--n", {**_REQUIRED_INT, "help": "index n of L_n"}),
        ),
        _cmd_fuse_c,
        _fuse_c_cost,
    ),
    "kac-diagram": (
        "Loewy diagram of K_{mp-1,nq-1}",
        (
            *_PQ,
            ("--m", _OPTIONAL_INT),
            ("--n", _OPTIONAL_INT),
            ("--r", {**_OPTIONAL_INT, "help": "request by raw Kac label instead"}),
            ("--s", _OPTIONAL_INT),
            ("--format", {"choices": ("json", "dot"), "default": "json"}),
        ),
        _cmd_kac_diagram,
        _kac_diagram_cost,
    ),
    "hexagon": (
        "invertible F-matrix solutions of the hexagon constraint",
        (
            *_PQ,
            ("--t", {"type": str, "default": None, "help": "evaluate the family at rational t=NUM/DEN"}),
        ),
        _cmd_hexagon,
        _fixed_cost,
    ),
    "braiding": (
        "R-scalars and balancing phases on L_n (x) L_n",
        (*_PQ, ("--n", {**_REQUIRED_INT, "help": "index n of L_n"})),
        _cmd_braiding,
        _braiding_cost,
    ),
    "decompose": (
        "truncated decompositions of the triplet algebra",
        (
            *_PQ,
            ("--target", {"choices": ("wpq", "wpq-equivariant", "ideal", "wprime"), "required": True}),
            ("--nmax", {**_REQUIRED_INT, "help": "last entry n"}),
        ),
        _cmd_decompose,
        _decompose_cost,
    ),
    "o0-check": (
        "weight-congruence identities for induction",
        (*_PQ, ("--nmax", {**_REQUIRED_INT, "help": "last row n"})),
        _cmd_o0_check,
        _o0_check_cost,
    ),
    "sl2": (
        "explicit sl2 irreducibles, forms, and CG maps",
        (
            ("--n", _REQUIRED_INT),
            (
                "--op",
                {
                    "choices": ("irrep", "form", "cg"),
                    "required": True,
                    "help": "what to write: E, F and H of V_n, its form, or a CG channel",
                },
            ),
            ("--m", _OPTIONAL_INT),
            ("--k", _OPTIONAL_INT),
        ),
        _cmd_sl2,
        _sl2_cost,
    ),
    "verify": (
        "run the exact property suites",
        (
            (
                "--suite",
                {
                    "action": "append",
                    "choices": _Suites(),
                    "help": "suite to run (repeatable); default all",
                },
            ),
        ),
        _cmd_verify,
        _fixed_cost,
    ),
}


def _parse_known(argv: list[str]):
    """The namespace `build_parser().parse_args(argv)` returns, read from
    COMMANDS alone, or None where argv leaves this strict grammar: the
    subcommand first, then only its own flags, each as `--flag VALUE` or
    `--flag=VALUE`, no VALUE "--", no separate VALUE starting with "-"
    unless the rest is decimal digits (argparse too reads such a negative
    integer as a value, since no option looks like one), a flag repeated
    only if it appends, every value passing its `type` and `choices`, and
    every required flag given.  Help, abbreviations and every error are
    left to argparse, the one writer of their bytes."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options = dict(COMMANDS[argv[0]][1])
    values = {flag: kwargs.get("default") for flag, kwargs in options.items()}
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        flag, equals, value = token.partition("=")
        if not equals:
            value = next(tokens, "-")  # a missing value is declined like "-"
            if value.startswith("-") and not value[1:].isdecimal():
                return None
        elif value == "--":  # argparse drops it and is left with no value
            return None
        kwargs = options.get(flag)
        if kwargs is None:
            return None
        append = kwargs.get("action") == "append"
        if flag in seen and not append:
            return None
        seen.add(flag)
        try:
            value = kwargs.get("type", str)(value)
        except Exception:  # argparse reports it, or raises it again
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[flag] = [*(values[flag] or ()), value] if append else value
    if any(kwargs.get("required") and flag not in seen for flag, kwargs in options.items()):
        return None
    names = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    return SimpleNamespace(command=argv[0], **names)


def build_parser(command: str | None = None):
    """The `triplet` argparse parser, used for help and for argv that
    `_parse_known` declines; of its subcommands only `command` gets its
    arguments.  --help lists every subcommand all the same."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse's parser with help and usage laid out 78 columns wide, as
        argparse does under COLUMNS=80, whatever the terminal: their bytes
        depend on argv alone."""

        def _get_formatter(self) -> argparse.HelpFormatter:
            return argparse.HelpFormatter(self.prog, width=78)

        def _print_message(self, message: str, file=None) -> None:
            # argparse drops an OSError from this write, so `--help` into a
            # closed pipe would be lost without a sign; let main() see it.
            if message and file is sys.stdout:
                file.write(message)
            else:
                super()._print_message(message, file)

        def _get_values(self, action, arg_strings: list[str]):
            # `--flag=--` arrives as ["--"], which argparse strips to no value
            # and stores as an empty list; refuse it as it refuses `--flag --`.
            if action.nargs is None and arg_strings == ["--"]:
                raise argparse.ArgumentError(action, "expected one argument")
            return super()._get_values(action, arg_strings)

    parser = _Parser(
        prog="triplet",
        description="Exact representation-theoretic data of the W_{p,q} triplet construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, options, *_) in COMMANDS.items():
        if name == command:
            subparser = sub.add_parser(name, help=help)
            for flag, kwargs in options:
                subparser.add_argument(flag, **kwargs)
        else:  # listed, never dispatched to: no arguments, not even -h
            sub.add_parser(name, help=help, add_help=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            if argv is None:
                argv = sys.argv[1:]
            args = _parse_known(argv)
            if args is None:
                # argparse runs the subcommand named by the first token that
                # is not an option.  Every token before it starts with "-", as
                # no subcommand name does, so this is the one it runs, if any.
                command = next((token for token in argv if token in COMMANDS), None)
                args = build_parser(command).parse_args(argv)
            _, _, handler, cost = COMMANDS[args.command]
            built, written = cost(args)
            if built > MAX_BUILT_BYTES or written > MAX_OUTPUT_BYTES:
                raise ValueError(
                    f"{args.command} may build {built} and write {written} bytes, over "
                    f"its budgets of {MAX_BUILT_BYTES} built and {MAX_OUTPUT_BYTES} written"
                )
            return handler(args)
        except UnsupportedObjectError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_CODES["unsupported"]
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_CODES["invalid"]
        except MemoryError:
            # str(MemoryError()) is empty, so the message is written here.
            sys.stderr.write("error: not enough memory for this request\n")
            return EXIT_CODES["invalid"]
        finally:
            # Flushed here, so a reader that closed the pipe early is caught
            # below even when stdout is block-buffered, as it is in a pipe.
            sys.stdout.flush()
    except BrokenPipeError:
        # The rest of the output has no reader.  Point stdout at devnull so
        # that the interpreter's own flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_CODES["broken_pipe"]
    except Exception as exc:  # noqa: BLE001 - any other fault, without a traceback
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        sys.stderr.write(f"error: internal error: {message}\n")
        return EXIT_CODES["internal"]


if __name__ == "__main__":
    sys.exit(main())
