"""Command-line front end: configuration, check dispatch, reports.

Subcommands::

    trilie verify <check>     run one named check and report pass/fail
    trilie analyze <proc>     run a structural procedure (closures, weights, ...)
    trilie table <name>       print a verified multiplication table
    trilie report             run the default battery and emit one report

All checks honor --bracket/--k/--beta/--window/--samples/--seed/--depth/--s0,
a JSON config file (--config; flags override the file), and --format
{text,json}.  Identical configuration and seed produce byte-identical
output: reports carry counts, never wall-clock times.  Exit status: 0 when
nothing failed (flagged paper discrepancies do not fail a run), 1 on any
exact counterexample, 2 on configuration errors (``ConfigError``) and on a
report that cannot be written, 3 on an internal error, reported in one
line without a traceback.  A run whose reader closes the stdout pipe keeps
its 0 or 1.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .analysis import (
    MODE_DERIVED,
    ClosureTable,
    ideal_check,
    ideal_closure_reaches_all,
    cartan_normalizer_check,
    fk_cartan_pairs,
    module_axiom_check,
    natural_module_decompose,
    omega_cartan_pairs,
    span_close,
    vandermonde_extract,
    weight_decompose,
    witt_module_check,
)
from .brackets import (
    DkInduced,
    FKBracket,
    FixedThirdL,
    FixedThirdM,
    OMEGA,
    center_window,
    check_anticommutativity,
    check_constructor_agreement,
    check_fundamental_identity,
    random_element,
)
from .elements import (
    FAMILY_L,
    FAMILY_M,
    Element,
    FunctionalSpec,
    L,
    M,
    check_structure_maps,
)
from .nambu import FKRealization, OmegaRealization, check_injectivity, check_realization
from .operators import (
    ad_w,
    ad_x,
    ad_y,
    verify_basis_independence,
    verify_section3_structure,
    verify_sl2_laurent,
    verify_table_5_1,
)
from .parsing import parse_beta, parse_element
from .report import FAIL, ConfigError, VerdictReport, Window, overall_status

CHECK_FAILED = 1
CONFIG_ERROR = 2
INTERNAL_ERROR = 3


@dataclass
class RunConfig:
    bracket: str = "omega"
    k: int = 1
    beta: FunctionalSpec = None
    window: Window = None
    samples: int = 20
    seed: int = 0
    depth: int = 8
    s0: int = 0
    fmt: str = "text"
    seed_element: Optional[Element] = None

    def tri_spec(self):
        if self.bracket == "omega":
            return OMEGA
        return FKBracket(self.k, self.beta)

    def describe(self) -> dict:
        return {
            "bracket": self.bracket,
            "k": self.k,
            "beta": self.beta.describe(),
            "window": str(self.window),
            "samples": self.samples,
            "seed": self.seed,
            "depth": self.depth,
            "s0": self.s0,
        }


# -- individual checks -------------------------------------------------------


def _fundamental_identity(cfg: RunConfig) -> List[VerdictReport]:
    return [
        check_fundamental_identity(cfg.tri_spec(), cfg.window, cfg.samples, cfg.seed)
    ]


def _anticommutativity(cfg: RunConfig) -> List[VerdictReport]:
    return [check_anticommutativity(cfg.tri_spec(), cfg.window)]


def _constructor_agreement(cfg: RunConfig) -> List[VerdictReport]:
    return [check_constructor_agreement(cfg.window, cfg.k, cfg.beta)]


def _nambu(cfg: RunConfig) -> List[VerdictReport]:
    if cfg.bracket == "omega":
        rmap = OmegaRealization()
    else:
        rmap = FKRealization(cfg.k, cfg.beta)
    return [
        check_realization(rmap, cfg.tri_spec(), cfg.window),
        check_injectivity(rmap, cfg.window),
    ]


def _structure_maps(cfg: RunConfig) -> List[VerdictReport]:
    return [check_structure_maps(cfg.window, cfg.k)]


def _basis_independence(cfg: RunConfig) -> List[VerdictReport]:
    return [
        verify_basis_independence(cfg.bracket, cfg.window, cfg.beta, cfg.k, cfg.s0)
    ]


def _table_5_1(cfg: RunConfig) -> List[VerdictReport]:
    bound = max(abs(cfg.window.lo), abs(cfg.window.hi))
    return [verify_table_5_1(bound)]


def _section3(cfg: RunConfig) -> List[VerdictReport]:
    return [verify_section3_structure(cfg.k, cfg.beta, cfg.s0, cfg.window)]


def _sl2(cfg: RunConfig) -> List[VerdictReport]:
    bound = max(abs(cfg.window.lo), abs(cfg.window.hi))
    return [verify_sl2_laurent(bound)]


def _module_axioms(cfg: RunConfig) -> List[VerdictReport]:
    return [module_axiom_check(cfg.tri_spec(), cfg.window, cfg.samples, cfg.seed)]


def _witt_module(cfg: RunConfig) -> List[VerdictReport]:
    return [witt_module_check(i, cfg.window) for i in (1, 2, 3)]


def _ideal_closure(cfg: RunConfig) -> List[VerdictReport]:
    seeds = [cfg.seed_element] if cfg.seed_element else None
    table = ClosureTable(cfg.tri_spec(), cfg.window)
    return [ideal_closure_reaches_all(table, seeds, cfg.depth)]


def _derived_series(cfg: RunConfig) -> List[VerdictReport]:
    if cfg.bracket == "fk" and cfg.depth < 1:
        raise ConfigError(
            "derived-series under fk needs --depth >= 1: the stabilization test "
            "compares the last two chain terms"
        )
    table = ClosureTable(cfg.tri_spec(), cfg.window)
    chain, rep = span_close(table, table.units, MODE_DERIVED, cfg.depth)
    if cfg.bracket == "fk":
        stabilized_nonzero = chain[-1].dim > 0 and chain[-1] == chain[-2]
        if stabilized_nonzero:
            rep.note(
                "derived chain stabilizes at a nonzero span (window evidence of "
                "non-solvability)"
            )
        else:
            rep.record_failure("derived chain did not stabilize at a nonzero span")
    return [rep]


def _vandermonde(cfg: RunConfig) -> List[VerdictReport]:
    def separate(u: Element) -> VerdictReport:
        # the least dominating index, and one power fewer than the support (at least one)
        return vandermonde_extract(OMEGA, u, max(bv.index for bv in u.terms) + 1, max(len(u.terms) - 1, 1))[1]

    if cfg.seed_element:
        return [separate(cfg.seed_element)]
    rng = random.Random(cfg.seed)
    trials = max(cfg.samples, 1)
    agg = VerdictReport(
        "vandermonde",
        {"window": str(cfg.window), "trials": trials, "seed": cfg.seed},
    )
    for _ in range(trials):
        rep = separate(random_element(rng, cfg.window))
        agg.merge_status(rep)
        for counterexample in rep.counterexamples:
            agg.record_failure(counterexample)
    agg.stats["trials"] = trials
    return [agg]


def _weight_decomposition(cfg: RunConfig) -> List[VerdictReport]:
    spec = cfg.tri_spec()
    hi = max(abs(cfg.window.lo), abs(cfg.window.hi), 2)
    zero_dims = []
    for w in range(2, hi + 1):  # the last window's decomposition and report are kept
        win = Window(-w, w)
        pairs = (
            omega_cartan_pairs() if cfg.bracket == "omega" else fk_cartan_pairs(win, cfg.k)
        )
        deco, rep = weight_decompose(spec, pairs, win)
        zero_dims.append(deco.zero_weight_dim())
    rep.stats["zero_weight_growth"] = ",".join(map(str, zero_dims))
    if cfg.bracket == "omega":
        if deco.max_dim == 2 and all(d == 0 for d in zero_dims):
            rep.note(
                "every weight space is two-dimensional at every window "
                "(Harish-Chandra evidence)"
            )
        elif deco.max_dim != 2:
            rep.record_failure(f"expected two-dimensional weight spaces, saw {deco.max_dim}")
        nz = cartan_normalizer_check(
            spec,
            cfg.window,
            lambda bv: bv.index == 0,
            [L(0), M(0)],
            "L[0], M[0]",
        )
        return [rep, nz]
    growing = all(b > a for a, b in zip(zero_dims, zero_dims[1:]))
    if growing:
        rep.note(
            f"zero-weight dimension grows with the window ({zero_dims}); the regular "
            "module is a weight module but its zero-weight space is unbounded "
            "(not Harish-Chandra, window evidence)"
        )
    else:
        rep.record_failure(f"expected strictly growing zero-weight dimension, saw {zero_dims}")
    gens = [L(-cfg.k)] + [M(t) for t in cfg.window.indices()]
    nz = cartan_normalizer_check(
        spec,
        cfg.window,
        lambda bv: bv.family == FAMILY_M or (bv.family == FAMILY_L and bv.index == -cfg.k),
        gens,
        f"L[{-cfg.k}] plus the M family",
    )
    return [rep, nz]


def _natural_module(cfg: RunConfig) -> List[VerdictReport]:
    _, rep = natural_module_decompose(cfg.window)
    return [rep]


def _center(cfg: RunConfig) -> List[VerdictReport]:
    out = []
    if cfg.bracket == "omega":
        for spec, expected in (
            (FixedThirdL(cfg.k), L(cfg.k)),
            (FixedThirdM(cfg.k), M(cfg.k)),
        ):
            basis, rep = center_window(spec, cfg.window)
            if cfg.k in cfg.window:
                if len(basis) == 1 and basis[0] == expected:
                    rep.note(f"center is exactly span{{{expected}}} on the window")
                else:
                    rep.record_failure(
                        f"expected span{{{expected}}}, computed {[str(b) for b in basis]}"
                    )
            out.append(rep)
        return out
    basis, rep = center_window(DkInduced(cfg.k), cfg.window)
    rep.note(
        "no published description of this center is in scope; the computed "
        "window center is reported as-is"
    )
    out.append(rep)
    return out


def _ideal_kinds(cfg: RunConfig) -> List[VerdictReport]:
    """The L family must be a hypo-nilpotent minimal ideal under the
    weighted bracket; the M family an abelian non-ideal subalgebra."""
    table = ClosureTable(cfg.tri_spec(), cfg.window)
    rep_l = ideal_check(table, [L(r) for r in cfg.window.indices()], cfg.depth)
    rep_l.params["candidate"] = "span{L}"
    if cfg.bracket == "fk":
        want = {
            "is_ideal": "True",
            "nilpotent_as_algebra": "True",
            "nilpotent_as_ideal": "False",
            "hypo_nilpotent": "True",
            "minimality_evidence": "True",
        }
        for key, val in want.items():
            if rep_l.stats.get(key) != val:
                rep_l.record_failure(f"expected {key}={val}, computed {rep_l.stats.get(key)}")
    rep_m = ideal_check(table, [M(r) for r in cfg.window.indices()], cfg.depth)
    rep_m.params["candidate"] = "span{M}"
    if cfg.bracket == "fk":
        if rep_m.stats.get("is_ideal") != "False":
            rep_m.record_failure("expected the M family not to be an ideal")
        if not rep_m.stats.get("own_lower_central_dims", "").endswith(",0"):
            rep_m.record_failure("expected the M family to be abelian")
    return [rep_l, rep_m]


CHECKS: Dict[str, Callable[[RunConfig], List[VerdictReport]]] = {
    "fundamental-identity": _fundamental_identity,
    "anticommutativity": _anticommutativity,
    "constructor-agreement": _constructor_agreement,
    "nambu-realization": _nambu,
    "structure-maps": _structure_maps,
    "basis-independence": _basis_independence,
    "table-5-1": _table_5_1,
    "section3-structure": _section3,
    "sl2-laurent": _sl2,
    "ideal-closure": _ideal_closure,
    "derived-series": _derived_series,
    "vandermonde": _vandermonde,
    "weight-decomposition": _weight_decomposition,
    "natural-module": _natural_module,
    "module-axioms": _module_axioms,
    "witt-module": _witt_module,
    "center": _center,
    "ideal-kinds": _ideal_kinds,
}

# -- the default battery for `trilie report` ---------------------------------


def default_battery(cfg: RunConfig) -> List[VerdictReport]:
    reports: List[VerdictReport] = []

    def run(name: str, **overrides):
        sub = RunConfig(**{**cfg.__dict__, **overrides})
        reports.extend(CHECKS[name](sub))

    run("structure-maps", window=Window(-5, 5))
    for bracket in ("omega", "fk"):
        run("anticommutativity", bracket=bracket, window=Window(-4, 4))
        run("fundamental-identity", bracket=bracket, window=Window(-3, 3), samples=100)
        run("module-axioms", bracket=bracket, window=Window(-2, 2), samples=25)
        run("nambu-realization", bracket=bracket, window=Window(-3, 3))
        run("basis-independence", bracket=bracket, window=Window(-4, 4))
    run("constructor-agreement", window=Window(-4, 4))
    run("table-5-1", window=Window(-5, 5))
    run("sl2-laurent", window=Window(-5, 5))
    for k in (0, 1):
        run("section3-structure", k=k, window=Window(-5, 5))
    run("ideal-closure", bracket="omega", window=Window(-6, 6))
    run("derived-series", bracket="fk", window=Window(-5, 5))
    run("ideal-kinds", bracket="fk", window=Window(-5, 5))
    run("vandermonde", samples=20, window=Window(-5, 5))
    for bracket in ("omega", "fk"):
        run("weight-decomposition", bracket=bracket, window=Window(-6, 6))
    run("natural-module", window=Window(-6, 6))
    run("witt-module", window=Window(-5, 5))
    run("center", bracket="omega", k=cfg.k, window=Window(-4, 4))
    return reports


# -- tables -------------------------------------------------------------------


def _table_wxy(cfg: RunConfig) -> List[VerdictReport]:
    rep = VerdictReport("table-wxy", {"window": str(cfg.window)})
    win = cfg.window
    for r in win.indices():
        for s in win.indices():
            w_op, x_op, y_op = ad_w(OMEGA, r, s), ad_x(OMEGA, r, s), ad_y(OMEGA, r, s)
            for t in win.indices():
                checks = (
                    (w_op.apply(L(t)), L(t + r - s, r - t)),
                    (w_op.apply(M(t)), M(t + s - r, t - s)),
                    (x_op.apply(L(t)), Element.zero()),
                    (x_op.apply(M(t)), L(r + s - t, s - r)),
                    (y_op.apply(L(t)), M(r + s - t, s - r)),
                    (y_op.apply(M(t)), Element.zero()),
                )
                for got, want in checks:
                    if got != want:
                        rep.record_failure(f"(r={r}, s={s}, t={t}): {got} != {want}")
    rep.stats["parameter_triples"] = (win.hi - win.lo + 1) ** 3
    return [rep]


# table name -> (the check that verifies it, its printed rows)
TABLES = {
    "5.1": (
        _table_5_1,
        (
            ("[p_r, p_s]", "(r-s) p_{r+s}"),
            ("[p_r, q_s]", "-s q_{r+s}"),
            ("[p_r, x_s]", "-s x_{r+s}"),
            ("[p_r, z_s]", "-s z_{r+s}"),
            ("[q_r, q_s]", "0"),
            ("[q_r, x_s]", "-2 x_{r+s}"),
            ("[q_r, z_s]", "2 z_{r+s}"),
            ("[x_r, x_s]", "0"),
            ("[z_r, z_s]", "0"),
            ("[z_r, x_s]", "q_{r+s}"),
        ),
    ),
    "wxy": (
        _table_wxy,
        (
            ("W_{r,s} L_t", "(r-t) L_{t+r-s}"),
            ("W_{r,s} M_t", "(t-s) M_{t+s-r}"),
            ("X_{r,s} L_t", "0"),
            ("X_{r,s} M_t", "(s-r) L_{r+s-t}"),
            ("Y_{r,s} L_t", "(s-r) M_{r+s-t}"),
            ("Y_{r,s} M_t", "0"),
        ),
    ),
}


# -- output -------------------------------------------------------------------


def emit(reports: List[VerdictReport], cfg: RunConfig, header: dict) -> str:
    status = overall_status(reports)
    if cfg.fmt == "json":
        doc = {
            "config": {k: header[k] for k in sorted(header)},
            "reports": [r.to_dict() for r in reports],
            "status": status,
        }
        return json.dumps(doc, sort_keys=True, indent=2)
    lines = [r.to_text() for r in reports]
    lines.append(f"overall: {status}")
    return "\n\n".join(lines[:-1]) + ("\n\n" if len(lines) > 1 else "") + lines[-1]


OPTIONS = ("bracket", "k", "beta", "window", "samples", "seed", "depth", "s0", "format")
INT_OPTIONS = ("k", "samples", "seed", "depth", "s0")
CHOICES = {"bracket": ("omega", "fk"), "format": ("text", "json")}


def read_config(path: str) -> dict:
    """Option values of a JSON config file, as the strings a flag would
    carry, checked like flags: every key is an option, integers parse and
    choices are respected."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigError(f"cannot read config file: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    for key in raw:
        if key not in OPTIONS:
            raise ConfigError(f"unknown config key {key!r} (options: {', '.join(OPTIONS)})")
    values = {key: str(value) for key, value in raw.items()}
    for key in INT_OPTIONS:
        if key in values:
            try:
                int(values[key])
            except ValueError:
                raise ConfigError(f"config value {key}={raw[key]!r} is not an integer") from None
    for key, choices in CHOICES.items():
        if key in values and values[key] not in choices:
            raise ConfigError(f"config value {key}={raw[key]!r} is not one of {', '.join(choices)}")
    return values


def build_parser(file_defaults: Optional[dict] = None) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    d = file_defaults or {}
    common.add_argument("--config", help="JSON file of default option values")
    common.add_argument("--bracket", choices=CHOICES["bracket"], default=d.get("bracket", "omega"))
    common.add_argument("--k", type=int, default=d.get("k", 1))
    common.add_argument("--beta", default=d.get("beta", "const:1"))
    common.add_argument("--window", default=d.get("window", "-3..3"))
    common.add_argument("--samples", type=int, default=d.get("samples", 20))
    common.add_argument("--seed", type=int, default=d.get("seed", 0))
    common.add_argument("--depth", type=int, default=d.get("depth", 8))
    common.add_argument("--s0", type=int, default=d.get("s0", 0))
    common.add_argument(
        "--format", dest="fmt", choices=CHOICES["format"], default=d.get("format", "text")
    )
    parser = argparse.ArgumentParser(
        prog="trilie",
        description="exact verification of two infinite-dimensional ternary Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser("verify", parents=[common], help="run a named identity check")
    p_verify.add_argument("check", choices=sorted(CHECKS))
    p_analyze = sub.add_parser("analyze", parents=[common], help="run a structural procedure")
    p_analyze.add_argument("procedure", choices=sorted(CHECKS))
    p_analyze.add_argument("--seed-element", help="element expression, e.g. 'M[2]'")
    p_table = sub.add_parser("table", parents=[common], help="print a verified table")
    p_table.add_argument("name", choices=tuple(TABLES))
    sub.add_parser("report", parents=[common], help="run the default battery")
    return parser


def make_config(args: argparse.Namespace) -> RunConfig:
    for flag in ("samples", "depth"):
        if getattr(args, flag) < 0:
            raise ConfigError(f"--{flag} must be nonnegative, got {getattr(args, flag)}")
    seed_element = getattr(args, "seed_element", None)
    if seed_element is not None:
        seed_element = parse_element(seed_element)
        if not seed_element:
            raise ConfigError("seed element must be nonzero")
    return RunConfig(
        bracket=args.bracket,
        k=args.k,
        beta=parse_beta(args.beta),
        window=Window.parse(args.window),
        samples=args.samples,
        seed=args.seed,
        depth=args.depth,
        s0=args.s0,
        fmt=args.fmt,
        seed_element=seed_element,
    )


def _glue_dash_values(argv: List[str]) -> List[str]:
    """Join option values that begin with '-' (window bounds, elements)
    onto their flag so argparse does not mistake them for options."""
    out: List[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--window", "--seed-element") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run_command(argv: List[str]) -> Tuple[int, str]:
    """Parse and run one command; returns its exit status and its stdout."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    file_defaults = read_config(known.config) if known.config else None
    args = build_parser(file_defaults).parse_args(argv)
    cfg = make_config(args)
    out = ""
    if args.command == "verify":
        reports = CHECKS[args.check](cfg)
    elif args.command == "analyze":
        reports = CHECKS[args.procedure](cfg)
    elif args.command == "table":
        run, rows = TABLES[args.name]
        reports = run(cfg)
        if cfg.fmt == "text":
            width = max(len(lhs) for lhs, _ in rows)
            out = "".join(f"  {lhs:<{width}} = {rhs}\n" for lhs, rhs in rows) + "\n"
    else:
        reports = default_battery(cfg)
    out += emit(reports, cfg, cfg.describe()) + "\n"
    return CHECK_FAILED if overall_status(reports) == FAIL else 0, out


def main(argv: Optional[List[str]] = None) -> int:
    """Run the command and write its report; a configuration fault or a
    failed write exits 2 and any other exception exits 3, each with one
    ``trilie:`` line on stderr.  A stdout pipe the reader closed is the
    reader's choice: the run keeps its status and writes nothing more."""
    try:
        status, out = run_command(_glue_dash_values(list(sys.argv[1:] if argv is None else argv)))
    except ConfigError as exc:
        print(f"trilie: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except Exception as exc:
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"trilie: internal error: {detail}", file=sys.stderr)
        return INTERNAL_ERROR
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except OSError as exc:
        # what is still buffered goes to the null device, so interpreter
        # exit has nothing left to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return status
        print(f"trilie: cannot write the report: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    return status


if __name__ == "__main__":
    sys.exit(main())
