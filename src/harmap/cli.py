"""Command-line front end.

Maps travel as JSON documents ``{"order": N, "h": [[re, im], ...],
"g": [[re, im], ...]}`` with coefficient arrays starting at the z^1
term; ``g`` may be omitted and is then zero.  Coefficients must be
finite: JSON ``NaN`` and ``Infinity`` are input errors, and so are a
``--ref-map`` whose derivative vanishes in the certified disk and a map
file, ``render --out`` or a figure of ``verify`` that cannot be read or
written (missing, a directory, no permission), named by its path.  Exit
codes: 0 success or membership true, 1 membership false or suite
failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .catalog import CatalogTag, make
from .classes import RELATIVE_CLASSES, ClassId, ClassName, SingularReferenceError, membership
from .geometry import radius_estimate
from .harmonic import HarmonicMap, alexander_minus, alexander_plus, harmonic_convolve, tilde_convolve
from .render import render_image
from .series import AnalyticSeries
from .verify import run_all, run_suite, suite_ids


class InputError(Exception):
    pass


def _pairs_to_coeffs(pairs, order: int, name: str) -> np.ndarray:
    out = np.zeros(order, dtype=np.complex128)
    if len(pairs) != order:
        raise InputError(f"field '{name}' must list exactly {order} [re, im] pairs, got {len(pairs)}")
    for k, pair in enumerate(pairs):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InputError(f"field '{name}', entry {k + 1}: expected an [re, im] pair")
        try:
            out[k] = complex(float(pair[0]), float(pair[1]))
        except (TypeError, ValueError):
            raise InputError(f"field '{name}', entry {k + 1}: non-numeric value") from None
    return out


def load_map(path) -> HarmonicMap:
    """Read a harmonic map from the JSON interchange format; a file that
    cannot be read (missing, a directory, no permission) is an ``InputError``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top-level value must be an object")
    order = doc.get("order")
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise InputError(f"{path}: field 'order' must be a positive integer")
    if "h" not in doc:
        raise InputError(f"{path}: field 'h' is required")
    try:
        h = _pairs_to_coeffs(doc["h"], order, "h")
        g = (
            _pairs_to_coeffs(doc["g"], order, "g")
            if "g" in doc and doc["g"] is not None
            else np.zeros(order, dtype=np.complex128)
        )
        return HarmonicMap(AnalyticSeries(h), AnalyticSeries(g))
    except (InputError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None


def dump_map(f: HarmonicMap) -> str:
    doc = {
        "order": f.order,
        "h": [[c.real, c.imag] for c in f.h.coeffs],
        "g": [[c.real, c.imag] for c in f.g.coeffs],
    }
    return json.dumps(doc, indent=1)


def _resolve_map(spec: str, order: int | None) -> HarmonicMap:
    """A catalog tag name or a JSON file path."""
    try:
        tag = CatalogTag(spec)
    except ValueError:
        tag = None
    if tag is not None:
        return make(tag, 64 if order is None else order)
    f = load_map(spec)
    return f if order is None else _reorder(f, order)


def _reorder(f: HarmonicMap, order: int) -> HarmonicMap:
    def fit(s: AnalyticSeries) -> AnalyticSeries:
        c = np.zeros(order, dtype=np.complex128)
        n = min(order, s.order)
        c[:n] = s.coeffs[:n]
        return AnalyticSeries(c)

    return HarmonicMap(fit(f.h), fit(f.g), f.closed_form)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _cmd_classify(args) -> int:
    f = _resolve_map(args.input, args.order)
    name = ClassName(args.cls)
    relative = name in RELATIVE_CLASSES
    if relative != bool(args.ref_map):
        rule = "is required for" if relative else "applies only to"
        raise InputError(f"--ref-map {rule} the _G classes (class {name.value})")
    ref = _resolve_map(args.ref_map, args.order).h if relative else None
    res = membership(f, ClassId(name, reference_map=ref))
    print(
        f"class={name.value} member={res.is_member} status={res.status} "
        f"margin={_fmt(res.margin)} witness={res.witness}"
    )
    return 0 if res.is_member else 1


def _cmd_convolve(args) -> int:
    a = _resolve_map(args.a, args.order)
    b = _resolve_map(args.b, args.order)
    out = tilde_convolve(a.h, b) if args.tilde else harmonic_convolve(a, b)
    print(dump_map(out))
    return 0


def _cmd_alexander(args) -> int:
    f = _resolve_map(args.input, args.order)
    out = alexander_plus(f) if args.sign == "plus" else alexander_minus(f)
    print(dump_map(out))
    return 0


def _cmd_radius(args) -> int:
    f = _resolve_map(args.input, args.order)
    est = radius_estimate(f, args.property, tol=args.tol)
    print(
        f"property={est.property} value={_fmt(est.value)} "
        f"bracket=[{_fmt(est.lo)}, {_fmt(est.hi)}] tol={_fmt(est.tol)}"
    )
    return 0


def _cmd_verify(args) -> int:
    if not Path(args.out_dir).is_dir():
        raise InputError(f"--out-dir {args.out_dir}: not an existing directory")
    try:
        reports = (
            run_all(args.seed, args.out_dir)
            if args.suite == "all"
            else [run_suite(args.suite, args.seed, args.out_dir)]
        )
    except OSError as exc:
        # the suites' only files are the figures they write to --out-dir
        raise InputError(f"{exc.filename}: {exc.strerror or exc}") from None
    ok = True
    for rep in reports:
        print(rep)
        ok = ok and rep.passed
    print(f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_render(args) -> int:
    f = _resolve_map(args.input, args.order)
    radii = [float(tok) for tok in args.radii.split(",") if tok]
    try:
        render_image(f, radii, args.samples, args.out)
    except OSError as exc:
        raise InputError(f"--out {args.out}: {exc.strerror or exc}") from None
    print(f"wrote {args.out}")
    return 0


def _cmd_catalog(args) -> int:
    print(dump_map(make(CatalogTag(args.tag), args.order)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmap", description="planar harmonic mapping toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_order(p):
        p.add_argument("--order", type=int, default=None, help="series truncation order (>= 1)")

    p = sub.add_parser("classify", help="test class membership of a map")
    p.add_argument("--class", dest="cls", required=True, choices=[c.value for c in ClassName])
    p.add_argument("--ref-map", default=None, help="reference map (tag or file) for _G classes")
    p.add_argument("--input", required=True, help="map file or catalog tag")
    add_order(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("convolve", help="convolve two maps (or an analytic kernel with a map)")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--tilde", action="store_true", help="use the analytic part of --a as kernel")
    add_order(p)
    p.set_defaults(fn=_cmd_convolve)

    p = sub.add_parser("alexander", help="apply the coefficient-dividing integral operator")
    p.add_argument("--sign", choices=["plus", "minus"], required=True)
    p.add_argument("--input", required=True)
    add_order(p)
    p.set_defaults(fn=_cmd_alexander)

    p = sub.add_parser("radius", help="estimate a property radius by scan and bisection")
    p.add_argument("--property", choices=["starlike", "convex", "univalent"], required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    add_order(p)
    p.set_defaults(fn=_cmd_radius)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", required=True, help=f"one of: all, {', '.join(suite_ids())}")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out-dir", default=".", help="directory for rendered figures")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("render", help="render circle images to SVG")
    p.add_argument("--input", required=True, help="map file or catalog tag")
    p.add_argument("--radii", required=True, help="comma-separated radii in (0,1)")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=512)
    add_order(p)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("catalog", help="print a named map in the JSON format")
    p.add_argument("--tag", required=True, choices=[t.value for t in CatalogTag])
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(fn=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "order", None) is not None and args.order < 1:
            parser.error(f"argument --order: must be at least 1, got {args.order}")
        if getattr(args, "seed", 0) < 0:
            parser.error(f"argument --seed: must be non-negative, got {args.seed}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (InputError, SingularReferenceError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
