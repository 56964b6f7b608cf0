"""Command line front end.

Subcommands:

  eval      apply the operator to a closed-form function at a point
  kernel    tabulate the kernel, closed form against truncated series
  check     evaluate one inequality on a seeded (or equality) instance
  suite     randomized campaign over theorems x seeds, CSV/JSON report
  sweep     vary parameters along axes around a seeded instance
  selftest  built-in verification battery

Every table (kernel, check, suite, sweep, and eval's csv) is a list of rows
keyed by column name, rendered by _render as csv, json or human (--format).

Exit codes: 0 success / all pass, 1 at least one fail, 2 validation error,
3 numeric error, 4 inconclusive single check, 5 I/O error, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import (
    ConstructionError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    EvaluationError,
    GenerationError,
    HyperkError,
    ValidationError,
)
from .fracint import (
    DEFAULT_ORDER,
    DEFINITION_ONLY,
    STRICT,
    OperatorParams,
    _check_order,
    apply_operator,
    kernel_closed,
    kernel_series,
    operator_of_one,
    rl_k_integral,
    validate,
)
from .inequalities import CHECKERS, InequalityReport, check_instance, run_suite, summarize
from .specfun import beta, gauss_2f1, log_gamma, pochhammer
from .quadrature import gauss_jacobi_rule
from .testfuncs import (
    THEOREM_IDS,
    AffineFn,
    ExpFn,
    PowerFn,
    equality_instance,
    random_instance,
    verify_hypotheses,
)

CSV_COLUMNS = [
    "theorem", "seed", "alpha", "beta", "eta", "mu", "k", "p", "q",
    "m", "M", "gamma", "delta", "x", "lhs", "rhs", "margin",
    "combined_error", "verdict",
]
# human tables: (column, width, significant digits or None for text)
_REPORT_HUMAN = [("theorem", 7, None), ("seed", 6, None), ("lhs", 19, 12),
                 ("rhs", 19, 12), ("margin", 19, 12), ("verdict", 12, None)]
_KERNEL_HUMAN = [("tau", 16, 12), ("closed", 19, 12), ("series", 19, 12),
                 ("rel_diff", 12, 3)]

# flags with a fixed set of values; --config values are checked against them too
_CHOICES = {"mode": (STRICT, DEFINITION_ONLY), "format": ("csv", "json", "human")}
_SWEEP_AXES = ("alpha", "beta", "eta", "mu", "k", "p", "m", "M")
_PARAM_AXES = ("alpha", "beta", "eta", "mu", "k")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not sys.exit(2)."""

    def error(self, message):
        raise _UsageError(message)


def _g17(v: float) -> str:
    return format(float(v), ".17g")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return _g17(v)


def _human_cell(v, digits) -> str:
    if v is None:
        return ""
    return str(v) if digits is None else format(float(v), f".{digits}g")


def _json_value(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.integer):
        return int(v)
    return v


def _parse_fn(text: str):
    """Selector grammar: power:c,p0 | exp:c,lam | affine:a0,b0 | one."""
    text = text.strip()
    if text == "one":
        return AffineFn(1.0, 0.0)
    family, sep, rest = text.partition(":")
    if not sep:
        raise _UsageError(f"bad function selector {text!r}")
    try:
        values = [float(v) for v in rest.split(",")]
    except ValueError:
        raise _UsageError(f"bad numbers in function selector {text!r}") from None
    if len(values) != 2:
        raise _UsageError(f"function selector {text!r} needs exactly two parameters")
    cls = {fn.family: fn for fn in (PowerFn, ExpFn, AffineFn)}.get(family)
    if cls is None:
        raise _UsageError(f"unknown function family {family!r}")
    return cls(*values)


def _parse_theorems(text: str) -> list[str]:
    if text.strip() == "all":
        return list(THEOREM_IDS)
    ids = [t.strip() for t in text.split(",") if t.strip()]
    if not ids:
        raise _UsageError("no theorem ids given")
    for tid in ids:
        if tid not in CHECKERS:
            raise _UsageError(f"unknown theorem id {tid!r}")
    return ids


def _add_param_flags(p):
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.2)
    p.add_argument("--eta", type=float, default=-0.4)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--k", type=float, default=0.0)
    p.add_argument("--mode", choices=_CHOICES["mode"], default=STRICT)


def _add_output_flags(p, default_format):
    p.add_argument("--format", choices=_CHOICES["format"], default=default_format)
    p.add_argument("--out", default="", help="write output to this file instead of stdout")
    p.add_argument("--config", default=None, help="JSON file whose keys override flags")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hyperk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="apply the operator to a function at a point")
    _add_param_flags(p)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    _add_output_flags(p, "human")
    p.add_argument("--fn", default="one",
                   help="power:c,p0 | exp:c,lam | affine:a0,b0 | one")
    p.add_argument("--x", type=float, default=1.0)

    p = sub.add_parser("kernel", help="tabulate kernel closed form vs series")
    _add_param_flags(p)
    _add_output_flags(p, "csv")
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--terms", type=int, default=40)

    p = sub.add_parser("check", help="evaluate one inequality instance")
    p.add_argument("--theorem", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--equality", action="store_true",
                   help="use the m = M = 1, f = g boundary instance")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    _add_output_flags(p, "csv")

    p = sub.add_parser("suite", help="randomized inequality campaign")
    p.add_argument("--theorems", default="all")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    _add_output_flags(p, "csv")

    p = sub.add_parser("sweep", help="vary parameters along axes around a seeded instance")
    p.add_argument("--theorem", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--axis", action="append", default=[], metavar="NAME=START:STOP:COUNT",
                   help="axis spec, repeatable; NAME is one of "
                        "alpha, beta, eta, mu, k, p, m, M")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    _add_output_flags(p, "csv")

    sub.add_parser("selftest", help="run the built-in verification battery")
    return parser


def _apply_config(args) -> None:
    path = getattr(args, "config", None)
    if not path:
        return
    text = Path(path).read_text()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise _UsageError(f"config {path!r} must hold a JSON object")
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if attr in ("command", "config") or not hasattr(args, attr):
            raise _UsageError(f"config key {key!r} does not match any flag of this command")
        current = getattr(args, attr)
        if isinstance(current, float) and type(value) is int:
            value = float(value)
        if type(value) is not type(current) or (
                isinstance(value, list) and not all(isinstance(v, str) for v in value)):
            raise _UsageError(f"config key {key!r} takes a {type(current).__name__}, "
                              f"got {value!r}")
        if attr in _CHOICES and value not in _CHOICES[attr]:
            raise _UsageError(f"config key {key!r} must be one of "
                              f"{', '.join(_CHOICES[attr])}, got {value!r}")
        setattr(args, attr, value)


def _emit(text: str, out) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _params_from_args(args) -> OperatorParams:
    return OperatorParams(args.alpha, args.beta, args.eta, args.mu, args.k, args.mode)


def _row_dict(rep) -> dict:
    inst = rep.instance
    row = {"theorem": rep.theorem_id, "seed": rep.seed}
    # the instance columns: the operator parameters from its params, the rest its own
    for name in CSV_COLUMNS[2:-5]:
        row[name] = None if inst is None else getattr(
            inst.params if name in _PARAM_AXES else inst, name)
    row.update((name, getattr(rep, name)) for name in CSV_COLUMNS[-5:])
    return row


def _summary_line(s: dict) -> str:
    def at(row):
        return "-" if row is None else f"{row[0]}:{row[1]}"

    return ("# summary: checks={checks} pass={p} fail={f} inconclusive={i} "
            "min_margin={mm} min_margin_at={mma} max_combined_error={me} "
            "max_rel_combined_error={mr} max_rel_combined_error_at={mra}\n").format(
        checks=s["checks"], p=s["pass"], f=s["fail"], i=s["inconclusive"],
        mm=_g17(s["min_margin"]), mma=at(s["min_margin_at"]),
        me=_g17(s["max_combined_error"]), mr=_g17(s["max_rel_combined_error"]),
        mra=at(s["max_rel_combined_error_at"]))


def _render(columns, rows: list[dict], fmt: str, human, summary: dict | None = None) -> str:
    """Rows (dicts keyed by column name) as csv, json or a fixed-width table.

    human is the table's column spec, (name, width, significant digits or
    None for text).  A summarize() dict, when given, follows the rows as
    the summary line, or as the "summary" object in json.
    """
    if fmt == "json":
        payload = {"rows": [{c: _json_value(row[c]) for c in columns} for row in rows]}
        if summary is not None:
            payload["summary"] = {k: _json_value(v) for k, v in summary.items()}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "human":
        lines = [" ".join(f"{name:>{width}}" for name, width, _ in human)]
        lines += [" ".join(f"{_human_cell(row[name], digits):>{width}}"
                           for name, width, digits in human) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(row[c]) for c in columns] for row in rows)
        text = buf.getvalue()
    return text if summary is None else text + _summary_line(summary)


def _render_reports(reports, fmt: str, summary: dict | None = None) -> str:
    return _render(CSV_COLUMNS, [_row_dict(r) for r in reports], fmt, _REPORT_HUMAN, summary)


def _cmd_eval(args) -> int:
    params = _params_from_args(args)
    validate(params)
    fn = _parse_fn(args.fn)
    res = apply_operator(params, fn, args.x, order=args.order)
    row = {"value": res.value, "error_estimate": res.error_estimate,
           "order_used": res.order_used}
    if args.format == "json":
        text = json.dumps(row, indent=2) + "\n"
    elif args.format == "csv":
        text = _render(list(row), [row], "csv", None)
    else:
        text = (f"value          = {res.value:.12g}\n"
                f"error_estimate = {res.error_estimate:.12g}\n"
                f"order_used     = {res.order_used}\n")
    _emit(text, args.out)
    return 0


def _cmd_kernel(args) -> int:
    params = _params_from_args(args)
    validate(params)
    if args.points < 1:
        raise _UsageError(f"--points must be >= 1, got {args.points}")
    if args.terms < 1:
        raise _UsageError(f"--terms must be >= 1, got {args.terms}")
    if not (math.isfinite(args.x) and args.x > 0.0):
        raise DomainError(f"x must be positive and finite, got {args.x!r}")
    taus = np.linspace(0.0, args.x, args.points + 2)[1:-1]
    rows = []
    for tau in taus:
        closed = kernel_closed(params, args.x, float(tau))
        series = kernel_series(params, args.x, float(tau), n_terms=args.terms)
        rel = abs(closed - series) / max(abs(closed), 1e-300)
        rows.append({"tau": float(tau), "closed": closed, "series": series, "rel_diff": rel})
    _emit(_render([c for c, _, _ in _KERNEL_HUMAN], rows, args.format, _KERNEL_HUMAN), args.out)
    return 0


def _cmd_check(args) -> int:
    if args.theorem not in CHECKERS:
        raise _UsageError(f"unknown theorem id {args.theorem!r}")
    if args.equality:
        inst = equality_instance(args.theorem, args.seed)
    else:
        inst = random_instance(args.seed, args.theorem)
    rep = check_instance(inst, order=args.order)
    _emit(_render_reports([rep], args.format), args.out)
    if rep.verdict == "pass":
        return 0
    if rep.verdict == "inconclusive":
        return 4
    return 1


def _cmd_suite(args) -> int:
    tids = _parse_theorems(args.theorems)
    if args.trials < 1:
        raise _UsageError(f"--trials must be >= 1, got {args.trials}")
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be >= 1, got {args.jobs}")
    reports = run_suite(tids, args.trials, base_seed=args.seed,
                        order=args.order, jobs=args.jobs)
    _emit(_render_reports(reports, args.format, summarize(reports)), args.out)
    return 1 if any(r.verdict == "fail" for r in reports) else 0


def _parse_axis(spec: str):
    name, sep, rest = spec.partition("=")
    name = name.strip()
    if not sep or name not in _SWEEP_AXES:
        raise _UsageError(f"bad axis spec {spec!r}; want NAME=START:STOP:COUNT with NAME "
                          f"in {', '.join(_SWEEP_AXES)}")
    pieces = rest.split(":")
    if len(pieces) != 3:
        raise _UsageError(f"bad axis spec {spec!r}; want NAME=START:STOP:COUNT")
    try:
        start, stop = float(pieces[0]), float(pieces[1])
        count = int(pieces[2])
    except ValueError:
        raise _UsageError(f"bad numbers in axis spec {spec!r}") from None
    if count < 1:
        raise _UsageError(f"axis count must be >= 1 in {spec!r}")
    return name, np.linspace(start, stop, count)


def _cmd_sweep(args) -> int:
    if args.theorem not in CHECKERS:
        raise _UsageError(f"unknown theorem id {args.theorem!r}")
    if not args.axis:
        raise _UsageError("sweep needs at least one --axis")
    axes = [_parse_axis(spec) for spec in args.axis]
    _check_order(args.order)
    base = random_instance(args.seed, args.theorem)
    for name, _ in axes:
        if name in ("p", "m", "M") and getattr(base, name) is None:
            raise _UsageError(f"axis {name!r} does not apply to theorem {args.theorem}")

    reports = []
    for combo in itertools.product(*(vals for _, vals in axes)):
        params = base.params
        fields = {}
        for (name, _), value in zip(axes, combo):
            value = float(value)
            if name in _PARAM_AXES:
                params = replace(params, **{name: value})
            elif name == "p":
                fields["p"] = value
                fields["q"] = value / (value - 1.0) if value > 1.0 else float("nan")
            else:
                fields[name] = value
        inst = replace(base, params=params, **fields)
        try:
            if inst.p is not None and not (math.isfinite(inst.p) and inst.p > 1.0):
                raise ConstructionError("p must be > 1")
            validate(inst.params)
            verify_hypotheses(inst)
            reports.append(check_instance(inst, order=args.order))
        except HyperkError as exc:
            reason = (exc.violations[0]
                      if isinstance(exc, ValidationError) and exc.violations
                      else type(exc).__name__)
            reports.append(InequalityReport(
                theorem_id=args.theorem, seed=base.seed, lhs=None, rhs=None, margin=None,
                combined_error=None, verdict=f"skipped: {reason}", instance=inst))
    _emit(_render_reports(reports, args.format), args.out)
    return 0


def _first_miss(cases) -> str | None:
    """The first (label, got, want, allowance) case with not
    |got - want| <= allowance, as a message, or None if every case passes.
    A NaN on either side fails, and so does inf against inf.  Cases are
    drawn one at a time, so none after the first miss is computed."""
    for label, got, want, allowance in cases:
        if not abs(got - want) <= allowance:
            return f"{label} = {got!r}, want {want!r}"
    return None


def _selftest_checks():
    """(name, check) pairs; check() runs one generator of golden cases
    through _first_miss and gives None or the first miss."""

    def log_gamma_cases():
        for x, want in ((1.0, 0.0), (5.0, math.log(24.0)), (0.5, 0.5 * math.log(math.pi))):
            yield f"log_gamma({x})", log_gamma(x), want, 1e-13 * max(1.0, abs(want))

    def poch_beta_cases():
        yield "pochhammer(3, 2)", pochhammer(3.0, 2), 12.0, 1e-12
        yield "pochhammer(0.5, 3)", pochhammer(0.5, 3), 1.875, 1e-12
        yield "beta(0.5, 0.5)", beta(0.5, 0.5), math.pi, 1e-12 * math.pi
        yield "beta(2, 3)", beta(2.0, 3.0), 1.0 / 12.0, 1e-13

    def hypergeometric_cases():
        want = 2.0 * math.log(2.0)
        yield "2F1(1,1;2;0.5)", gauss_2f1(1.0, 1.0, 2.0, 0.5), want, 1e-12 * want
        want = math.exp(log_gamma(1.5) + log_gamma(1.0) - log_gamma(1.2) - log_gamma(1.3))
        yield "2F1(0.3,0.2;1.5;1)", gauss_2f1(0.3, 0.2, 1.5, 1.0), want, 1e-12 * want
        coeffs = [1.0]
        a, b, c = -3.0, 2.0, 1.5
        for n in range(3):
            coeffs.append(coeffs[-1] * (a + n) * (b + n) / ((c + n) * (n + 1)) * 0.7)
        want = math.fsum(coeffs)
        yield "2F1(-3,2;1.5;0.7)", gauss_2f1(a, b, c, 0.7), want, 1e-12 * max(1.0, abs(want))

    def quadrature_cases():
        rule = gauss_jacobi_rule(0.0, 0.0, 1)
        yield "order-1 Legendre node", float(rule.nodes[0]), 0.5, 1e-15
        yield "order-1 Legendre weight", float(rule.weights[0]), 1.0, 1e-15
        rule = gauss_jacobi_rule(0.0, 0.0, 2)
        for j, want in enumerate((0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))):
            yield f"order-2 Legendre node {j}", float(rule.nodes[j]), want, 1e-14
        rule = gauss_jacobi_rule(-0.5, 0.25, 8)
        for j in range(16):
            want = beta(j + 1.25, 0.5)
            yield (f"moment {j} of the (-0.5, 0.25) rule", float(rule.weights @ rule.nodes ** j),
                   want, 1e-10 * want)

    def reduction_cases():
        f = AffineFn(1.0, 1.0)
        for alpha, k in ((0.7, 0.0), (1.3, 1.0), (0.9, 0.5)):
            params = OperatorParams(alpha, -alpha, -0.3, 0.0, k,
                                    validation_mode=DEFINITION_ONLY)
            want = rl_k_integral(alpha, k, f, 1.5, order=48)
            yield (f"reduction at alpha={alpha}, k={k}", apply_operator(params, f, 1.5, order=48).value,
                   want, 1e-10 * max(1.0, abs(want)))

    def kernel_cases():
        for params in (OperatorParams(0.5, 0.2, -0.4, 0.0, 0.0),
                       OperatorParams(1.2, -0.3, -0.2, 0.3, 1.0)):
            for tau in (0.9, 1.1, 1.3):
                want = kernel_closed(params, 1.5, tau)
                yield (f"kernel series at alpha={params.alpha}, tau={tau}",
                       kernel_series(params, 1.5, tau, n_terms=200), want, 1e-10 * max(1.0, abs(want)))

    def unit_image_cases():
        params = OperatorParams(0.5, 0.2, -0.4, 0.0, 0.0)
        want = math.exp(log_gamma(0.4) - log_gamma(0.8) - log_gamma(1.1))
        yield "unit closed form at x=1.0", operator_of_one(params, 1.0), want, 1e-12 * want
        one = AffineFn(1.0, 0.0)
        for params in (OperatorParams(0.8, -0.2, -0.5, 0.25, 1.0),
                       OperatorParams(1.4, 0.3, -0.35, 0.1, 0.6),
                       OperatorParams(0.5, 0.2, -0.4, 0.0, 2.0)):
            for x in (0.7, 2.0):
                want = operator_of_one(params, x)
                yield (f"unit image at alpha={params.alpha}, x={x}",
                       apply_operator(params, one, x, order=64).value, want, 1e-8 * max(1.0, abs(want)))

    return [(name, lambda cases=cases: _first_miss(cases())) for name, cases in (
        ("log-gamma golden values", log_gamma_cases),
        ("pochhammer and beta golden values", poch_beta_cases),
        ("hypergeometric golden values", hypergeometric_cases),
        ("quadrature nodes and moments", quadrature_cases),
        ("reduction to the plain fractional integral", reduction_cases),
        ("kernel series against closed form", kernel_cases),
        ("unit image against its closed form", unit_image_cases),
    )]


def _cmd_selftest(args) -> int:
    checks = _selftest_checks()
    failures = 0
    for name, fn in checks:
        try:
            detail = fn()
        except Exception as exc:  # a selftest must never crash the battery
            detail = f"{type(exc).__name__}: {exc}"
        if detail is None:
            print(f"ok    {name}")
        else:
            failures += 1
            print(f"FAIL  {name}: {detail}")
    print(f"{len(checks) - failures} of {len(checks)} checks passed")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "kernel": _cmd_kernel,
    "check": _cmd_check,
    "suite": _cmd_suite,
    "sweep": _cmd_sweep,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except (ValidationError, DomainError, ConstructionError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, DivergenceError, EvaluationError, GenerationError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
